package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pdf"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/uncertain"
)

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: http.Header{}} }

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(b)
}
func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf.Reset()
}

// retained is one response kept for the correctness checks.
type retained struct {
	q    float64
	body []byte
}

// queryLoad is what one closed-loop query client measured. Clients never
// share one.
type queryLoad struct {
	w   *respWriter
	lat samples     // ns, the call
	at  []time.Time // completion time of each lat sample

	attempted, failed    int
	hits, shared, misses int
	failures             []error // failed calls, first few
	checkErrs            []error // wrong outputs, first few

	keep      []retained
	keepEvery int // retain every keepEvery-th response…
	keepMax   int // …up to keepMax of them

	// refs holds query-hot's miss body per point; hits must equal it.
	refs [][]byte

	// Traced-phase per-layer records.
	tr     *tracer
	layers *layerRecs
}

// layerRecs are per-query layer measurements of a traced phase.
type layerRecs struct {
	hitCall, overhead           samples // ns
	filter, derive, verif, refn samples // ns, from core.Stats of a direct Engine.CPNN
	bound, gather, routerSelf   samples // ns
	cands, subregions           samples
	unkRS, unkLSR, unkUSR       samples
	refined, integrations       samples
}

func (l *layerRecs) merge(o *layerRecs) {
	for _, p := range [][2]*samples{
		{&l.hitCall, &o.hitCall}, {&l.overhead, &o.overhead}, {&l.filter, &o.filter},
		{&l.derive, &o.derive}, {&l.verif, &o.verif}, {&l.refn, &o.refn},
		{&l.bound, &o.bound}, {&l.gather, &o.gather}, {&l.routerSelf, &o.routerSelf},
		{&l.cands, &o.cands}, {&l.subregions, &o.subregions}, {&l.unkRS, &o.unkRS},
		{&l.unkLSR, &o.unkLSR}, {&l.unkUSR, &o.unkUSR}, {&l.refined, &o.refined},
		{&l.integrations, &o.integrations},
	} {
		*p[0] = append(*p[0], *p[1]...)
	}
}

const maxErrs = 5

func (ql *queryLoad) fail(err error) {
	ql.failed++
	if len(ql.failures) < maxErrs {
		ql.failures = append(ql.failures, err)
	}
}

func (ql *queryLoad) wrong(err error) {
	if len(ql.checkErrs) < maxErrs {
		ql.checkErrs = append(ql.checkErrs, err)
	}
}

// do sends one query through the handler. key indexes query-hot's point
// set (-1 elsewhere); req may be pre-built.
func (ql *queryLoad) do(e *env, key int, q float64, req *http.Request) {
	buildStart := time.Now()
	if req == nil {
		var err error
		if req, err = http.NewRequest(http.MethodGet, cpnnURL(q), nil); err != nil {
			ql.attempted++
			ql.fail(err)
			return
		}
	}
	build := time.Since(buildStart)
	var t *opTrace
	if ql.tr != nil {
		t = ql.tr.begin()
		t.open("query", "server.ServeHTTP")
		req = req.WithContext(withOpTrace(req.Context(), t))
	}
	ql.w.reset()
	callStart := time.Now()
	e.h.ServeHTTP(ql.w, req)
	callEnd := time.Now()
	ql.attempted++
	if ql.w.code != http.StatusOK {
		ql.fail(fmt.Errorf("q=%g: status %d: %s", q, ql.w.code, bytes.TrimSpace(ql.w.buf.Bytes())))
		return
	}
	ql.lat.addDur(callEnd.Sub(callStart))
	ql.at = append(ql.at, callEnd)
	body := ql.w.buf.Bytes()
	src := ql.w.hdr.Get("X-Cache")
	switch src {
	case "hit":
		ql.hits++
	case "shared":
		ql.shared++
	default:
		ql.misses++
	}
	if ql.refs != nil && key >= 0 {
		if err := checkSameBody(q, ql.refs[key], body); err != nil {
			ql.wrong(err)
		}
	}
	if ql.keepEvery > 0 && len(ql.keep) < ql.keepMax && (ql.attempted-1)%ql.keepEvery == 0 {
		ql.keep = append(ql.keep, retained{q: q, body: bytes.Clone(body)})
	}
	if t == nil {
		return
	}
	// The root is the benchmark's handling of the query: building the
	// request, the call and reading the response, without the tracing
	// bookkeeping itself.
	t.close(callStart.Add(-build), callStart, callEnd, time.Now())
	ql.traceLayers(e, q, src, callEnd.Sub(callStart), t, body)
	// A hit's call is the result cache's work; an evaluated query's is
	// explained by its member spans and the phase's engine time.
	var covered int64
	if src == "hit" {
		covered = callEnd.Sub(callStart).Nanoseconds()
	}
	ql.tr.finish(t, covered)
}

// traceLayers derives one traced query's layer figures, outside its timed
// interval. A hit counts only its call time. An evaluated query adds the
// response's stats block and a direct Engine.CPNN on the same snapshot (or,
// sharded, on the gathered candidates) that splits the call into engine and
// serving time.
func (ql *queryLoad) traceLayers(e *env, q float64, src string, call time.Duration, t *opTrace, body []byte) {
	l := ql.layers
	if src == "hit" {
		l.hitCall.addDur(call)
		return
	}
	if b, err := parseBody(body); err == nil {
		l.cands.add(float64(b.Stats.Candidates))
		l.subregions.add(float64(b.Stats.Subregions))
		unk := map[string]float64{}
		last := float64(b.Stats.Candidates)
		for i, name := range b.Stats.Verifiers {
			if i < len(b.Stats.UnknownAfter) {
				last = float64(b.Stats.UnknownAfter[i])
			}
			unk[name] = last
		}
		// A chain that stopped early left nothing unknown for the rest.
		get := func(name string) float64 {
			if v, ok := unk[name]; ok {
				return v
			}
			return last
		}
		l.unkRS.add(get("RS"))
		l.unkLSR.add(get("L-SR"))
		l.unkUSR.add(get("U-SR"))
		l.refined.add(float64(b.Stats.Refined))
		l.integrations.add(float64(b.Stats.Integrations))
	}
	var eng *core.Engine
	var maxB, maxG int64
	if e.router == nil {
		eng = e.srv.Snapshot().Engine
	} else {
		t.mu.Lock()
		items := dedupeItems(t.items)
		for _, s := range t.spans {
			switch s.Name {
			case "shard.Bound":
				maxB = max(maxB, s.End-s.Start)
			case "shard.Gather":
				maxG = max(maxG, s.End-s.Start)
			}
		}
		t.mu.Unlock()
		l.bound.add(float64(maxB))
		l.gather.add(float64(maxG))
		var err error
		if eng, err = core.NewEngine(itemDataset(items)); err != nil {
			ql.wrong(fmt.Errorf("q=%g: engine over gathered candidates: %v", q, err))
			return
		}
	}
	res, err := eng.CPNN(q, constraint, core.Options{Strategy: core.VR})
	if err != nil {
		ql.wrong(fmt.Errorf("q=%g: direct Engine.CPNN: %v", q, err))
		return
	}
	st := res.Stats
	l.filter.addDur(st.FilterTime)
	l.derive.addDur(st.InitTime)
	l.verif.addDur(st.VerifyTime)
	l.refn.addDur(st.RefineTime)
	engine := st.Total().Nanoseconds()
	if e.router == nil {
		l.overhead.add(float64(call.Nanoseconds() - engine))
	} else {
		l.routerSelf.add(float64(call.Nanoseconds() - maxB - maxG - engine))
	}
}

// closedLoop runs clients closed-loop clients until the deadline; next
// yields a client's next query (key, point, optional pre-built request).
func closedLoop(e *env, loads []*queryLoad, deadline time.Time, next func(c int) (int, float64, *http.Request)) {
	var wg sync.WaitGroup
	for c, ql := range loads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k, q, req := next(c)
				ql.do(e, k, q, req)
			}
		}()
	}
	wg.Wait()
}

// pacer schedules an open-loop generator: op i is due at start + i/rate.
type pacer struct {
	start    time.Time
	interval time.Duration
}

// wait sleeps until op i is due and returns its due time and lateness. An
// idle Go runtime wakes a sleeper with about a millisecond's granularity;
// that lateness is part of every open-loop latency and is reported in the
// run's health. Yielding in a loop up to the due time removed it but cost
// the program up to half a core and made the figures less steady.
func (p pacer) wait(i int) (time.Time, time.Duration) {
	due := p.start.Add(time.Duration(i) * p.interval)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return due, time.Since(due)
}

// commitRec is one acknowledged commit of the writer.
type commitRec struct {
	due, start, end time.Time
	version         uint64 // the version the commit made; a push carrying it reports at least this
	flattened       bool   // a checkpoint ran during the Apply call
	ids             []uint64
	ivs             []interval
}

// writeLoad is what the open-loop writer measured.
type writeLoad struct {
	commits   []commitRec
	attempted int
	failed    int
	failures  []error
	lateness  samples
	ops       int
	opBytes   int
	tr        *tracer
}

// writer commits update batches open-loop at rate per second until the
// deadline. objs is the model it keeps in step with every acknowledged
// batch.
func writer(e *env, wl *writeLoad, up *updates, objs []interval, rate float64, start, deadline time.Time) {
	p := pacer{start: start, interval: time.Duration(float64(time.Second) / rate)}
	for i := 0; ; i++ {
		due := p.start.Add(time.Duration(i) * p.interval)
		if !due.Before(deadline) {
			return
		}
		ops, ids, ivs := up.next(objs)
		payload, err := store.EncodeOps(ops)
		if err != nil {
			wl.attempted++
			wl.failed++
			wl.failures = append(wl.failures, err)
			continue
		}
		_, late := p.wait(i)
		wl.lateness.addDur(late)
		var t *opTrace
		if wl.tr != nil {
			t = wl.tr.begin()
			t.open("commit", "store.Apply")
		}
		ck0 := e.checkpoints()
		t0 := time.Now()
		res, err := e.stores[0].Apply(ops)
		t1 := time.Now()
		wl.attempted++
		if err != nil {
			wl.failed++
			if len(wl.failures) < maxErrs {
				wl.failures = append(wl.failures, err)
			}
			continue
		}
		for j, id := range ids {
			objs[id] = ivs[j]
		}
		wl.ops += len(ops)
		wl.opBytes += len(payload)
		wl.commits = append(wl.commits, commitRec{due: due, start: t0, end: t1, version: res.Version, flattened: e.checkpoints() > ck0, ids: ids, ivs: ivs})
		if t != nil {
			t.close(t0, t0, t1, time.Now())
			wl.tr.finish(t, t1.Sub(t0).Nanoseconds())
		}
	}
}

// checkpoints is the writer's store's completed checkpoint count.
func (e *env) checkpoints() uint64 { return e.stores[0].Stats().Checkpoints }

// stalled counts commits whose due-to-acknowledge interval overlaps an Apply
// call during which a flatten ran.
func stalled(cs []commitRec) int {
	var flat []commitRec
	for _, c := range cs {
		if c.flattened {
			flat = append(flat, c)
		}
	}
	n := 0
	for _, c := range cs {
		for _, f := range flat {
			if c.due.Before(f.end) && c.end.After(f.start) {
				n++
				break
			}
		}
	}
	return n
}

// pushLatencies joins each push with the first commit whose version covers
// it and returns due time → receipt, in ns.
func pushLatencies(cs []commitRec, ps []pushRec) samples {
	var out samples
	for _, p := range ps {
		i := sort.Search(len(cs), func(i int) bool { return cs[i].version >= p.version })
		if i < len(cs) {
			out.addDur(p.at.Sub(cs[i].due))
		}
	}
	return out
}

func dedupeItems(items []shard.Item) []shard.Item {
	seen := map[uint64]int{}
	var out []shard.Item
	for _, it := range items {
		if i, ok := seen[it.ID]; ok {
			out[i] = it
			continue
		}
		seen[it.ID] = len(out)
		out = append(out, it)
	}
	return out
}

func itemDataset(items []shard.Item) *uncertain.Dataset {
	pdfs := make([]pdf.PDF, len(items))
	for i, it := range items {
		pdfs[i] = it.PDF
	}
	return uncertain.NewDataset(pdfs)
}
