package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/shard"
)

// Tracing lives in the benchmark alone: spans wrap the benchmark's own calls
// into the program's public functions, never code inside the program. One
// operation (a query or a commit) is a root span owned by the benchmark;
// its children are the program call and the member calls made on its
// behalf. Self time assigns every instant of the root's interval to the
// deepest span covering it, so parallel children (the router's concurrent
// member calls) are not counted twice.
//
// The unattributed residue is what no layer measurement explains: the
// root's self time (the benchmark's own work around the call) plus the
// call's self time beyond what a layer accounts for without a span. A cache
// hit's call is the server's result cache and a store.Apply call is the
// store, so both count whole. An evaluated query's call is explained by its
// member Bound and Gather spans, and over the phase by the engine time the
// server itself records from the core.Stats of each evaluation it serves
// (the cpnn_query_phase_seconds sums) and the router's merge time. The
// server's and the router's own time (parsing, encoding, building the
// merged view, scheduling between phases, GC assists) stays in the residue:
// server.overhead_us and shard.router_self_us are residues themselves, not
// explanations.

// span is one recorded interval.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// opTrace collects the spans of one operation. Member decorators append to
// it from the router's goroutines, so appends are locked.
type opTrace struct {
	mu    sync.Mutex
	req   uint64
	spans []span
	epoch time.Time
	// items collects what the shard members returned to this query's
	// gathers, for the direct engine evaluation that splits router time.
	items []shard.Item
}

type opTraceKey struct{}

func withOpTrace(ctx context.Context, t *opTrace) context.Context {
	return context.WithValue(ctx, opTraceKey{}, t)
}

func opTraceFrom(ctx context.Context) *opTrace {
	t, _ := ctx.Value(opTraceKey{}).(*opTrace)
	return t
}

// add records a span under parent and returns its ID.
func (t *opTrace) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: t.req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// open reserves the root span (ID 0) and its one direct program call (ID
// 1); their intervals are filled in by close once the call returns, so the
// member spans recorded meanwhile can name span 1 as their parent.
func (t *opTrace) open(root, call string) {
	t.spans = append(t.spans[:0],
		span{Name: root, ID: 0, Parent: -1, Req: t.req},
		span{Name: call, ID: 1, Parent: 0, Req: t.req})
}

// close sets the root's and the call's intervals.
func (t *opTrace) close(rootStart, callStart, callEnd, rootEnd time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[0].Start, t.spans[0].End = rootStart.Sub(t.epoch).Nanoseconds(), rootEnd.Sub(t.epoch).Nanoseconds()
	t.spans[1].Start, t.spans[1].End = callStart.Sub(t.epoch).Nanoseconds(), callEnd.Sub(t.epoch).Nanoseconds()
}

// selfTimes returns each span name's self time within the root span (span
// 0), in nanoseconds. A span's depth is its distance from the root; each
// elementary segment between span boundaries goes to the deepest span that
// covers it, the earliest-recorded one on ties.
func selfTimes(spans []span) map[string]int64 {
	out := map[string]int64{}
	if len(spans) == 0 {
		return out
	}
	depth := make([]int, len(spans))
	for i := 1; i < len(spans); i++ {
		depth[i] = depth[spans[i].Parent] + 1
	}
	root := spans[0]
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, max(s.Start, root.Start), min(s.End, root.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b <= a {
			continue
		}
		best := 0
		for i, s := range spans {
			if s.Start <= a && s.End >= b && depth[i] > depth[best] {
				best = i
			}
		}
		out[spans[best].Name] += b - a
	}
	return out
}

// tracer aggregates the residue over a traced phase and keeps the first
// spans in memory until writeSpans saves them.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID uint64
	total  int64 // summed root durations
	resid  int64 // summed unattributed time
	kept   []span
}

// maxKeptSpans bounds the spans held for the trace file; the residue is
// aggregated over every operation regardless.
const maxKeptSpans = 200000

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// begin starts an operation's trace.
func (tr *tracer) begin() *opTrace {
	tr.mu.Lock()
	tr.nextID++
	id := tr.nextID
	tr.mu.Unlock()
	return &opTrace{req: id, epoch: tr.epoch, spans: make([]span, 0, 8)}
}

// finish folds a completed operation (root span 0, program call span 1)
// into the aggregates. covered is the part of the call's self time a layer
// accounts for without a span of its own (see above).
func (tr *tracer) finish(t *opTrace, covered int64) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if len(spans) < 2 {
		return
	}
	self := selfTimes(spans)
	resid := self[spans[0].Name] + max(0, self[spans[1].Name]-covered)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.total += spans[0].End - spans[0].Start
	tr.resid += resid
	if len(tr.kept)+len(spans) <= maxKeptSpans {
		tr.kept = append(tr.kept, spans...)
	}
}

// unattributed is the share of root time no layer explains. explained is
// the time over the phase that falls inside the calls' self time but is
// measured without a span: engine evaluation and router merge.
func (tr *tracer) unattributed(explained int64) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return ratio(float64(max(0, tr.resid-explained)), float64(tr.total))
}

// writeSpans saves the kept spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.kept {
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
