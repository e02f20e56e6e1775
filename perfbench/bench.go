package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pagecache"
	"repro/internal/pager"
	"repro/internal/shard"
	"repro/internal/store"
)

// Fixed load shape (see README.md).
const (
	// setupReps is how many times a run sets the program up; setup_s is the
	// median and the last instance is measured.
	setupReps = 11
	// clients is the closed-loop client count, one goroutine each.
	clients = 2
	// writeRate is update-mix's open-loop commit rate, per second.
	writeRate = 300.0
	// warmQueries warms the unique-point workloads before measuring.
	warmQueries = 200
	// keepPerClient bounds the responses each closed-loop client keeps for
	// the checks; update-mix's reader keeps every readerKeepEvery-th, up to
	// 4 × keepPerClient.
	keepPerClient   = 150
	readerKeepEvery = 10
	// mcQueries is how many checked answers also get a Monte-Carlo check.
	mcQueries = 6
	// allocPass is the serial pass that counts allocations per call.
	allocPass = 256
	// syncTimeout bounds waiting for the monitor to go quiescent.
	syncTimeout = 60 * time.Second
)

var workloadNames = []string{"query-hot", "query-cold", "update-mix", "sharded-read"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory for the stores
	spans    string // where the traced run writes its spans
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// outcome is one run's result.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	health            health
}

// health reports how the run itself went.
type health struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      bool                 `json:"trace"`
	Ops        map[string]opCount   `json:"ops"`
	Generators map[string]generator `json:"generators,omitempty"`
	FeedGaps   uint64               `json:"monitor_feed_gaps"`
	SubDrops   uint64               `json:"subscriber_drops"`
	Samples    map[string]int       `json:"samples"`
	ShortTails []string             `json:"short_tails,omitempty"`
	Errors     []string             `json:"errors,omitempty"`
	Steady     bool                 `json:"steady"`
	Unsteady   []string             `json:"unsteady_reasons,omitempty"`
	SetupS     []float64            `json:"setup_s_each"`
	Layout     map[string]any       `json:"layout"`
	Checks     map[string]int       `json:"checks"`
}

type opCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// generator reports an open-loop generator's lateness against its limit.
type generator struct {
	Ops       int     `json:"ops"`
	RatePerS  float64 `json:"rate_per_s"`
	LateP50Ms float64 `json:"late_p50_ms"`
	LateP99Ms float64 `json:"late_p99_ms"`
	LateMaxMs float64 `json:"late_max_ms"`
	LimitP50  float64 `json:"limit_p50_ms"`
	LimitMax  float64 `json:"limit_max_ms"`
}

// bench is one run in progress.
type bench struct {
	cfg    config
	in     *inputs
	e      *env
	mon    *standing
	objs   []interval // model of every acknowledged update
	up     *updates
	out    *outcome
	errs   []error
	checks map[string]int

	hotPts  []float64
	hotReqs [][]*http.Request // per client, per point
	hotRefs [][]byte
	kept    []retained // query responses to check against the model at setup
	// versioned holds update-mix reader responses, checked against the
	// model at their version.
	versioned []retained
	commits   []commitRec // every acknowledged commit, in order

	setupParts [3]samples // open, load, checkpoint (ns)

	// heap is the live heap after the measured phase, with the program
	// set up; phases keeps the measured phases reachable until the
	// baseline without the program is read, so both readings hold the
	// same benchmark data.
	heap   float64
	phases []*phase
}

func (b *bench) wrong(err error) {
	if err != nil {
		b.errs = append(b.errs, err)
	}
}

func (b *bench) count(op string, attempted, failed int) {
	c := b.out.health.Ops[op]
	c.Attempted += attempted
	c.Failed += failed
	b.out.health.Ops[op] = c
	b.out.attempted += attempted
	b.out.failed += failed
}

func (b *bench) add(name, unit string, v float64) {
	b.out.metrics = append(b.out.metrics, metric{name, unit, v})
}

// shortTail records in the run's health a tail read from fewer samples
// than one of windowedTail's slices needs: the whole sample's percentile.
func (b *bench) shortTail(name string, n int, p float64) {
	b.out.health.ShortTails = append(b.out.health.ShortTails, fmt.Sprintf("%s: %d samples < %d", name, n, tailSamples(p)))
}

func runBench(cfg config) (*outcome, error) {
	runtime.GOMAXPROCS(2)
	in, err := makeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, in: in, objs: append([]interval(nil), in.objs...), up: in.updates(), checks: map[string]int{}}
	b.out = &outcome{health: health{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Ops: map[string]opCount{}, Samples: map[string]int{}, Generators: map[string]generator{}}}
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	if err := b.setup(); err != nil {
		return nil, err
	}
	err = b.measure()
	if cerr := b.teardown(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		// The program's heap alone: without the program, the benchmark's
		// own data (the dataset, its model, the kept responses) remains.
		b.add("live_heap_mb", "MiB", b.heap-liveHeapMiB())
	}
	b.phases = nil
	o := b.out
	o.correct = len(b.errs) == 0
	for _, e := range b.errs {
		o.health.Errors = append(o.health.Errors, e.Error())
	}
	o.health.Checks = b.checks
	o.health.Steady = len(o.health.Unsteady) == 0
	return o, nil
}

// setup builds the program setupReps times in fresh directories, keeps the
// last instance and reports the median as setup_s.
func (b *bench) setup() error {
	var each samples
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(b.cfg.work, fmt.Sprintf("setup-%d", rep))
		runtime.GC()
		t0 := time.Now()
		e, mon, err := b.setupOnce(dir)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		each.addDur(d)
		b.out.health.SetupS = append(b.out.health.SetupS, d.Seconds())
		b.setupParts[0].addDur(e.openDur)
		b.setupParts[1].addDur(e.loadDur)
		b.setupParts[2].addDur(e.ckptDur)
		if rep == setupReps-1 {
			b.e, b.mon = e, mon
			break
		}
		if mon != nil {
			mon.stop()
		}
		if err := e.close(); err != nil {
			return fmt.Errorf("set-up: closing: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if !b.cfg.trace {
		b.add("setup_s", "s", each.pct(50)/1e9)
	}
	return nil
}

func (b *bench) setupOnce(dir string) (*env, *standing, error) {
	switch b.cfg.workload {
	case "query-hot":
		e, err := setupSingle(dir, b.in, store.Options{NoSync: true, CacheBytes: hotCacheBytes}, false)
		return e, nil, err
	case "query-cold":
		e, err := setupSingle(dir, b.in, store.Options{NoSync: true, CacheBytes: coldCacheBytes}, true)
		return e, nil, err
	case "update-mix":
		e, err := setupSingle(dir, b.in, store.Options{NoSync: true, CheckpointBytes: updateCheckpointBytes}, false)
		if err != nil {
			return nil, nil, err
		}
		mon, err := newStanding(e, b.in.standingSpecs())
		if err != nil {
			e.close()
			return nil, nil, err
		}
		return e, mon, nil
	case "sharded-read":
		e, err := setupSharded(dir, b.in, store.Options{NoSync: true, CacheBytes: coldCacheBytes / shards})
		return e, nil, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q", b.cfg.workload)
}

// teardown stops the program and drops every reference to it.
func (b *bench) teardown() error {
	if b.mon != nil {
		b.mon.stop()
		b.mon = nil
	}
	if b.e == nil {
		return nil
	}
	err := b.e.close()
	b.e = nil
	return err
}

// snap is a point-in-time read of every counter a phase differences.
type snap struct {
	at       time.Time
	pc       pagecache.Stats
	resident int64
	wal      uint64
	ckpts    uint64
	ckptNs   uint64
	overlay  int
	router   shard.Stats
	gathered uint64
	mon      monCounters
	rt       rt
	wchar    uint64
	engineNs int64 // the server's summed engine phase time
}

func (b *bench) snap() snap {
	s := snap{at: time.Now(), rt: readRT()}
	for _, st := range b.e.stores {
		x := st.Stats()
		s.pc.Hits += x.PageCache.Hits
		s.pc.Misses += x.PageCache.Misses
		s.pc.Evictions += x.PageCache.Evictions
		s.resident += int64(x.PageCache.ResidentPages) * pager.PageSize
		s.wal += x.WALAppendedBytes
		s.ckpts += x.Checkpoints
		s.ckptNs += x.CheckpointNanos
		s.overlay += x.OverlaySlots
	}
	if b.e.router != nil {
		s.router = b.e.router.Stats()
		for _, m := range b.e.members {
			s.gathered += m.gathered.Load()
		}
	}
	if b.mon != nil {
		s.mon = b.mon.counters()
	}
	if w, err := writtenBytes(); err == nil {
		s.wchar = w
	} else {
		b.wrong(fmt.Errorf("reading written bytes: %v", err))
	}
	s.engineNs = b.engineNanos()
	return s
}

// engineNanos reads the server's /metrics and sums its C-PNN phase
// histograms (cpnn_query_phase_seconds, fed from the core.Stats of every
// evaluation it serves): the engine's time inside the program's calls.
func (b *bench) engineNanos() int64 {
	w := newRespWriter()
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		b.wrong(err)
		return 0
	}
	b.e.h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		b.wrong(fmt.Errorf("/metrics: status %d", w.code))
		return 0
	}
	return int64(promSum(w.buf.String(), "cpnn_query_phase_seconds_sum{", `endpoint="cpnn"`) * 1e9)
}

// phase is one measured interval of load.
type phase struct {
	before, after snap
	loads         []*queryLoad
	wl            *writeLoad
	pushes        []pushRec
	tr            *tracer
	layers        *layerRecs
	q             querySummary
}

// querySummary is a phase's query figures. The raw samples are dropped
// once summarized, so they do not count in live_heap_mb.
type querySummary struct {
	n, ok, hits, shared int
	p50                 float64 // ns, whole phase
	p50w, qpsw          float64 // windowed medians (ns, 1/s)
	p95                 float64 // ns, windowedTail
	p95ok               bool
}

func (p *phase) summarize() {
	var lat samples
	var at []time.Time
	for _, ql := range p.loads {
		lat = append(lat, ql.lat...)
		at = append(at, ql.at...)
		p.q.ok += ql.attempted - ql.failed
		p.q.hits += ql.hits
		p.q.shared += ql.shared
		ql.lat, ql.at = nil, nil
	}
	p.q.n = len(lat)
	p.q.p50 = lat.pct(50)
	p.q.p50w, p.q.qpsw = windowed(lat, at, p.before.at, p.after.at, 50)
	order := make([]int, len(lat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return at[order[i]].Before(at[order[j]]) })
	ordered := make(samples, len(lat))
	for k, i := range order {
		ordered[k] = lat[i]
	}
	p.q.p95, p.q.p95ok = windowedTail(ordered, 95)
}

func (b *bench) measure() error {
	if err := b.warm(); err != nil {
		return err
	}
	plain, err := b.runPhase(false)
	if err != nil {
		return err
	}
	var traced *phase
	if b.cfg.trace {
		if traced, err = b.runPhase(true); err != nil {
			return err
		}
		if err := traced.tr.writeSpans(b.cfg.spans); err != nil {
			return err
		}
	}
	b.heap = liveHeapMiB()
	b.phases = []*phase{plain, traced}
	var allocReq, allocCore float64
	if b.cfg.trace {
		allocReq, allocCore = b.allocPasses()
	}
	// The write side: update-mix's traced phase in a traced run, else its
	// untraced one; the read workloads write nothing.
	var write *phase
	if b.cfg.workload == "update-mix" {
		write = plain
		if traced != nil {
			write = traced
		}
	}
	if err := b.checkAll(); err != nil {
		return err
	}
	disk, err := dirBytes(b.e.dirs)
	if err != nil {
		return err
	}
	ub, err := userBytes(b.objs)
	if err != nil {
		return err
	}
	var hookP50 float64
	if b.mon != nil {
		hookP50 = b.mon.hookP50ms()
	}
	b.health(plain, write)
	if b.cfg.workload == "update-mix" {
		if err := b.checkReopen(); err != nil {
			return err
		}
	}
	if !b.cfg.trace {
		b.endToEnd(plain, float64(disk)/float64(ub))
	} else {
		b.writeSide(plain)
		b.perLayer(plain, traced, write, allocReq, allocCore, hookP50)
	}
	return nil
}

// warm sends each query-hot point once (its miss body becomes the reference
// every hit must equal) or warmQueries unique points elsewhere.
func (b *bench) warm() error {
	ql := &queryLoad{w: newRespWriter()}
	if b.cfg.workload == "query-hot" {
		b.hotPts = b.in.hotSet()
		b.hotRefs = make([][]byte, len(b.hotPts))
		b.hotReqs = make([][]*http.Request, clients)
		for c := range b.hotReqs {
			for _, q := range b.hotPts {
				req, err := http.NewRequest(http.MethodGet, cpnnURL(q), nil)
				if err != nil {
					return err
				}
				b.hotReqs[c] = append(b.hotReqs[c], req)
			}
		}
		ql.keepEvery, ql.keepMax = 1, len(b.hotPts)
		for i, q := range b.hotPts {
			ql.do(b.e, -1, q, nil)
			if ql.failed == 0 {
				b.hotRefs[i] = ql.keep[i].body
			}
		}
		b.kept = append(b.kept, ql.keep...)
	} else {
		pts := pointStream{b.in.rng(streamWarm)}
		for i := 0; i < warmQueries; i++ {
			ql.do(b.e, -1, pts.next(), nil)
		}
	}
	b.count("query", ql.attempted, ql.failed)
	for _, err := range ql.failures {
		b.out.health.Errors = append(b.out.health.Errors, "warm-up: "+err.Error())
	}
	if ql.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d queries failed: %v", ql.failed, ql.attempted, ql.failures[0])
	}
	return nil
}

// runPhase drives the workload's load for the run length.
func (b *bench) runPhase(traced bool) (*phase, error) {
	p := &phase{layers: &layerRecs{}}
	if traced {
		p.tr = newTracer()
	}
	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	newLoad := func() *queryLoad {
		return &queryLoad{w: newRespWriter(), tr: p.tr, layers: &layerRecs{}}
	}
	var pushMark int
	if b.mon != nil {
		pushMark = b.mon.sub.mark()
	}
	// The traced phase continues with fresh query streams.
	var streamOff int64
	if traced {
		streamOff = 100
	}
	runtime.GC()
	p.before = b.snap()
	start := time.Now()
	deadline := start.Add(dur)
	switch b.cfg.workload {
	case "query-hot":
		streams := make([]*hotStream, clients)
		for c := range streams {
			p.loads = append(p.loads, newLoad())
			p.loads[c].refs = b.hotRefs
			streams[c] = b.in.hotStream(c, b.hotPts)
		}
		closedLoop(b.e, p.loads, deadline, func(c int) (int, float64, *http.Request) {
			i, q := streams[c].next()
			return i, q, b.hotReqs[c][i]
		})
	case "query-cold", "sharded-read":
		streams := make([]pointStream, clients)
		for c := range streams {
			p.loads = append(p.loads, newLoad())
			if !traced {
				p.loads[c].keepEvery, p.loads[c].keepMax = 1, keepPerClient
			}
			streams[c] = pointStream{b.in.rng(streamClient0 + int64(c) + streamOff)}
		}
		closedLoop(b.e, p.loads, deadline, func(c int) (int, float64, *http.Request) {
			return -1, streams[c].next(), nil
		})
	case "update-mix":
		ql := newLoad()
		if !traced {
			ql.keepEvery, ql.keepMax = readerKeepEvery, 4*keepPerClient
		}
		p.loads = []*queryLoad{ql}
		p.wl = &writeLoad{tr: p.tr}
		pts := pointStream{b.in.rng(streamReader + streamOff)}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer(b.e, p.wl, b.up, b.objs, writeRate, start, deadline)
		}()
		closedLoop(b.e, p.loads, deadline, func(int) (int, float64, *http.Request) {
			return -1, pts.next(), nil
		})
		wg.Wait()
	}
	end := time.Now()
	if b.mon != nil {
		if err := b.mon.m.Sync(syncTimeout); err != nil {
			return nil, err
		}
		p.pushes = b.mon.sub.since(pushMark)
	}
	p.after = b.snap()
	p.after.at = end
	p.summarize()
	for _, ql := range p.loads {
		b.count("query", ql.attempted, ql.failed)
		for _, err := range ql.failures {
			b.out.health.Errors = append(b.out.health.Errors, err.Error())
		}
		for _, err := range ql.checkErrs {
			b.wrong(err)
		}
		p.layers.merge(ql.layers)
		if ql.refs != nil {
			b.checks["cache_bodies"] += ql.hits + ql.shared + ql.misses
		}
		if b.cfg.workload == "update-mix" {
			b.versioned = append(b.versioned, ql.keep...)
		} else {
			b.kept = append(b.kept, ql.keep...)
		}
	}
	if p.wl != nil {
		b.noteWrites(p.wl)
	}
	return p, nil
}

func (b *bench) noteWrites(wl *writeLoad) {
	b.count("commit", wl.attempted, wl.failed)
	for _, err := range wl.failures {
		b.out.health.Errors = append(b.out.health.Errors, err.Error())
	}
	b.commits = append(b.commits, wl.commits...)
}

// allocPasses counts allocations per call in a serial pass through the
// handler and, on single-store workloads, through Engine.CPNN.
func (b *bench) allocPasses() (perReq, perCore float64) {
	ql := &queryLoad{w: newRespWriter()}
	pts := pointStream{b.in.rng(streamAllocs)}
	var qs []float64
	for i := 0; i < allocPass; i++ {
		qs = append(qs, pts.next())
	}
	runtime.GC()
	r0 := readRT()
	for i, q := range qs {
		if b.cfg.workload == "query-hot" {
			j := i % len(b.hotPts)
			ql.do(b.e, j, b.hotPts[j], b.hotReqs[0][j])
		} else {
			ql.do(b.e, -1, q, nil)
		}
	}
	perReq = float64(readRT().sub(r0).allocObjs) / allocPass
	b.count("query", ql.attempted, ql.failed)
	if b.e.router != nil {
		return perReq, 0
	}
	eng := b.e.srv.Snapshot().Engine
	runtime.GC()
	r0 = readRT()
	for _, q := range qs {
		if _, err := eng.CPNN(q+0.5, constraint, core.Options{Strategy: core.VR}); err != nil {
			b.wrong(fmt.Errorf("direct Engine.CPNN: %v", err))
		}
	}
	return perReq, float64(readRT().sub(r0).allocObjs) / allocPass
}

// checkAll runs the correctness checks on everything kept.
func (b *bench) checkAll() error {
	rng := b.in.rng(streamMC)
	mc := 0
	check := func(objs []interval, r retained) {
		body, err := parseBody(r.body)
		if err != nil {
			b.wrong(err)
			return
		}
		b.wrong(checkCandidates(objs, body))
		b.wrong(checkClassification(body))
		b.checks["candidates"]++
		b.checks["classification"]++
		if mc < mcQueries {
			mc++
			b.wrong(checkProbability(objs, body, rng))
			b.checks["probability"]++
		}
	}
	for _, r := range b.kept {
		check(b.in.objs, r)
	}
	if b.cfg.workload == "sharded-read" {
		if err := b.checkSharded(); err != nil {
			return err
		}
	}
	if len(b.versioned) > 0 {
		// Replay the acknowledged commits to each response's version.
		sort.SliceStable(b.versioned, func(i, j int) bool {
			return versionOf(b.versioned[i].body) < versionOf(b.versioned[j].body)
		})
		objs := append([]interval(nil), b.in.objs...)
		next := 0
		for _, r := range b.versioned {
			v := versionOf(r.body)
			for next < len(b.commits) && b.commits[next].version <= v {
				for j, id := range b.commits[next].ids {
					objs[id] = b.commits[next].ivs[j]
				}
				next++
			}
			check(objs, r)
		}
	}
	if b.mon != nil {
		if err := b.mon.m.Sync(syncTimeout); err != nil {
			return err
		}
		for _, st := range b.mon.m.List() {
			fresh, err := b.mon.fresh(b.mon.specs[st.ID])
			if err != nil {
				return err
			}
			b.wrong(checkStanding(st.ID, st.Spec.Q, st.Answer, fresh))
			b.checks["standing"]++
		}
	}
	got, err := b.liveObjects()
	if err != nil {
		return err
	}
	b.wrong(checkState("final store", got, b.objs))
	b.checks["store_state"]++
	return nil
}

func versionOf(body []byte) uint64 {
	b, err := parseBody(body)
	if err != nil {
		return 0
	}
	return b.Version
}

// liveObjects reads the program's live objects by stable ID.
func (b *bench) liveObjects() (map[uint64]interval, error) {
	out := map[uint64]interval{}
	for _, st := range b.e.stores {
		if err := addView(out, st.View()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// addView adds a view's live objects to out, refusing an ID seen before.
func addView(out map[uint64]interval, v *store.View) error {
	for slot, o := range v.Dataset.Objects() {
		r := o.Region()
		if _, dup := out[v.IDs[slot]]; dup {
			return fmt.Errorf("object %d is live twice", v.IDs[slot])
		}
		out[v.IDs[slot]] = interval{r.Lo, r.Hi}
	}
	return nil
}

// checkSharded compares every kept sharded body with a single store's body
// for the same point on the same data.
func (b *bench) checkSharded() error {
	dir := filepath.Join(b.cfg.work, "single-reference")
	ref, err := setupSingle(dir, b.in, store.Options{NoSync: true}, false)
	if err != nil {
		return err
	}
	defer ref.close()
	w := newRespWriter()
	for _, r := range b.kept {
		req, err := http.NewRequest(http.MethodGet, cpnnURL(r.q), nil)
		if err != nil {
			return err
		}
		w.reset()
		ref.h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			return fmt.Errorf("single-store reference q=%g: status %d", r.q, w.code)
		}
		b.wrong(checkShardBody(r.q, r.body, w.buf.Bytes()))
		b.checks["sharded_vs_single"]++
	}
	return nil
}

// checkReopen closes update-mix's program (the server checkpoints and
// closes its store) and reopens the store: it must still hold every
// acknowledged update.
func (b *bench) checkReopen() error {
	if b.mon != nil {
		b.mon.stop()
		b.mon = nil
	}
	if err := b.e.close(); err != nil {
		return err
	}
	dir := b.e.dirs[0]
	b.e = nil
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("reopening: %w", err)
	}
	got := map[uint64]interval{}
	b.wrong(addView(got, st.View()))
	b.wrong(checkState("reopened store", got, b.objs))
	b.checks["store_state"]++
	return st.Close()
}

// health fills in the run-health report.
func (b *bench) health(plain, write *phase) {
	h := &b.out.health
	h.Layout = map[string]any{
		"objects": len(b.in.pdfs), "gomaxprocs": runtime.GOMAXPROCS(0), "clients": clients,
		"write_rate_per_s": writeRate, "readers": 1, "batch_ops": batchOps,
		"standing_queries": standingQueries, "seconds": b.cfg.seconds,
	}
	h.Samples["query"] = plain.q.n
	if write != nil && write.wl != nil {
		h.Samples["commit"] = len(write.wl.commits)
		h.Samples["push"] = len(pushLatencies(write.wl.commits, write.pushes))
		b.genHealth("writer", write.wl.lateness, writeRate)
		gaps := write.after.mon.gaps - write.before.mon.gaps
		drops := write.after.mon.dropped - write.before.mon.dropped
		h.FeedGaps, h.SubDrops = gaps, drops+uint64(b.laggedEvents())
		if gaps > 0 {
			h.Unsteady = append(h.Unsteady, fmt.Sprintf("%d monitor feed gaps", gaps))
		}
		if h.SubDrops > 0 {
			h.Unsteady = append(h.Unsteady, fmt.Sprintf("%d subscriber drops", h.SubDrops))
		}
	}
}

func (b *bench) laggedEvents() int {
	if b.mon == nil {
		return 0
	}
	return b.mon.sub.laggedEvents()
}

// genHealth records an open-loop generator's lateness. Its limits: the
// median op leaves within half an interval, and no op is more than a second
// late (a backlog that does not drain).
func (b *bench) genHealth(name string, late samples, rate float64) {
	g := generator{Ops: len(late), RatePerS: rate, LateP50Ms: late.pct(50) / 1e6, LateP99Ms: late.pct(99) / 1e6,
		LateMaxMs: late.pct(100) / 1e6, LimitP50: 500 / rate, LimitMax: 1000}
	b.out.health.Generators[name] = g
	if g.LateP50Ms > g.LimitP50 || g.LateMaxMs > g.LimitMax {
		b.out.health.Unsteady = append(b.out.health.Unsteady, fmt.Sprintf("%s generator lagged: p50 %.3f ms (limit %.3f), max %.1f ms (limit %.0f)",
			name, g.LateP50Ms, g.LimitP50, g.LateMaxMs, g.LimitMax))
	}
}

// endToEnd reports the untraced run's metrics. Every workload reports
// every one: query-hot, query-cold and sharded-read from two closed-loop
// clients, update-mix from its one closed-loop reader beside the writes.
func (b *bench) endToEnd(plain *phase, diskRatio float64) {
	q := plain.q
	b.add("query_p50_ms", "ms", q.p50w/1e6)
	if !q.p95ok {
		b.shortTail("query_p95_ms", q.n, 95)
	}
	b.add("query_p95_ms", "ms", q.p95/1e6)
	b.add("query_qps", "1/s", q.qpsw)
	b.add("disk_bytes_per_user_byte", "ratio", diskRatio)
}

// writeSide reports update-mix's commit and push figures from its untraced
// phase; the read workloads report 0, since they commit nothing.
func (b *bench) writeSide(plain *phase) {
	var commit, push samples
	var c50, wbytes float64
	if w := plain.wl; w != nil {
		var cat []time.Time
		for _, c := range w.commits {
			commit.addDur(c.end.Sub(c.due))
			cat = append(cat, c.end)
		}
		c50, _ = windowed(commit, cat, plain.before.at, plain.after.at, 50)
		push = pushLatencies(w.commits, plain.pushes)
		wbytes = ratio(float64(plain.after.wchar-plain.before.wchar), float64(w.opBytes))
	}
	c99, ok := windowedTail(commit, 99)
	if !ok && plain.wl != nil {
		b.shortTail("store.commit_p99_ms", len(commit), 99)
	}
	p90, ok := windowedTail(push, 90)
	if !ok && plain.wl != nil {
		b.shortTail("monitor.push_p90_ms", len(push), 90)
	}
	b.add("store.commit_p50_ms", "ms", c50/1e6)
	b.add("store.commit_p99_ms", "ms", c99/1e6)
	b.add("monitor.push_p50_ms", "ms", push.pct(50)/1e6)
	b.add("monitor.push_p90_ms", "ms", p90/1e6)
	b.add("store.write_bytes_per_user_byte", "ratio", wbytes)
}

// perLayer reports the traced run's layer metrics.
func (b *bench) perLayer(plain, traced, write *phase, allocReq, allocCore, hookP50 float64) {
	if write == nil {
		// A workload that writes nothing reads 0 on every write-side layer.
		write = &phase{wl: &writeLoad{}}
	}
	l := traced.layers
	tq := traced.q
	tok, hits, shared := tq.ok, tq.hits, tq.shared
	us := func(s samples) float64 { return s.pct(50) / 1e3 }
	q := float64(tok)
	b.add("server.hit_us", "us", us(l.hitCall))
	b.add("server.overhead_us", "us", us(l.overhead))
	b.add("server.cache_hit_ratio", "ratio", ratio(float64(hits), q))
	b.add("server.shared_ratio", "ratio", ratio(float64(shared), q))
	b.add("server.allocs_per_request", "count", allocReq)

	b.add("filter.time_us", "us", us(l.filter))
	b.add("core.derive_us", "us", us(l.derive))
	b.add("verify.time_us", "us", us(l.verif))
	b.add("refine.time_us", "us", us(l.refn))
	b.add("core.candidates_per_query", "count", l.cands.mean())
	b.add("core.subregions_per_query", "count", l.subregions.mean())
	b.add("verify.unknown_after_rs", "count", l.unkRS.mean())
	b.add("verify.unknown_after_lsr", "count", l.unkLSR.mean())
	b.add("verify.unknown_after_usr", "count", l.unkUSR.mean())
	b.add("refine.objects_per_query", "count", l.refined.mean())
	b.add("refine.integrations_per_query", "count", l.integrations.mean())
	b.add("core.allocs_per_query", "count", allocCore)

	tb, ta := traced.before, traced.after
	pcMiss := float64(ta.pc.Misses - tb.pc.Misses)
	pcHit := float64(ta.pc.Hits - tb.pc.Hits)
	b.add("pagecache.misses_per_query", "count", ratio(pcMiss, q))
	b.add("pagecache.hit_ratio", "ratio", ratio(pcHit, pcHit+pcMiss))
	b.add("pagecache.evictions_per_query", "count", ratio(float64(ta.pc.Evictions-tb.pc.Evictions), q))
	b.add("pagecache.resident_bytes", "bytes", float64(ta.resident))

	ms := func(s samples) float64 { return s.pct(50) / 1e6 }
	b.add("store.open_ms", "ms", ms(b.setupParts[0]))
	b.add("store.load_ms", "ms", ms(b.setupParts[1]))
	b.add("store.checkpoint_ms", "ms", ms(b.setupParts[2]))
	wb, wa := write.before, write.after
	var apply samples
	for _, c := range write.wl.commits {
		apply.addDur(c.end.Sub(c.start))
	}
	commits := float64(len(write.wl.commits))
	flattens := float64(wa.ckpts - wb.ckpts)
	b.add("store.commits", "count", commits)
	b.add("store.commit_us", "us", us(apply))
	b.add("store.flattens", "count", flattens)
	b.add("store.flatten_ms", "ms", ratio(float64(wa.ckptNs-wb.ckptNs), flattens)/1e6)
	b.add("store.stalled_commits", "count", float64(stalled(write.wl.commits)))
	b.add("store.wal_bytes_per_op", "bytes", ratio(float64(wa.wal-wb.wal), float64(write.wl.ops)))
	b.add("store.overlay_slots", "count", float64(wa.overlay))

	mb, ma := wb.mon, wa.mon
	aff, pr := float64(ma.affected-mb.affected), float64(ma.pruned-mb.pruned)
	reused, derived := float64(ma.reused-mb.reused), float64(ma.derived-mb.derived)
	b.add("monitor.pruned_ratio", "ratio", ratio(pr, aff+pr))
	b.add("monitor.reevals_per_commit", "count", ratio(float64(ma.reevals-mb.reevals), commits))
	b.add("monitor.fold_reuse_ratio", "ratio", ratio(reused, reused+derived))
	b.add("monitor.early_exits_per_commit", "count", ratio(float64(ma.earlyExits-mb.earlyExits), commits))
	b.add("monitor.pushes_per_commit", "count", ratio(float64(ma.pushes-mb.pushes), commits))
	b.add("monitor.hook_push_p50_ms", "ms", hookP50)
	b.add("monitor.state_mb", "MiB", float64(ma.stateBytes)/(1<<20))

	rq := float64(ta.router.Queries - tb.router.Queries)
	b.add("shard.bound_us", "us", us(l.bound))
	b.add("shard.gather_us", "us", us(l.gather))
	b.add("shard.merge_us", "us", ratio(float64(ta.router.MergeNanos-tb.router.MergeNanos), rq)/1e3)
	b.add("shard.router_self_us", "us", us(l.routerSelf))
	b.add("shard.gathered_per_query", "count", ratio(float64(ta.gathered-tb.gathered), rq))
	b.add("shard.bound_calls_per_query", "count", ratio(float64(ta.router.BoundContacts-tb.router.BoundContacts), rq))
	b.add("shard.gather_calls_per_query", "count", ratio(float64(ta.router.GatherContacts-tb.router.GatherContacts), rq))
	b.add("shard.retries_per_query", "count", ratio(float64(ta.router.Retries-tb.router.Retries), rq))

	pops := float64(plain.q.ok)
	if plain.wl != nil {
		pops += float64(len(plain.wl.commits))
	}
	prt := plain.after.rt.sub(plain.before.rt)
	b.add("runtime.alloc_bytes_per_op", "bytes", ratio(float64(prt.allocBytes), pops))
	b.add("runtime.gc_cycles_per_1k_ops", "count", ratio(1000*float64(prt.gcCycles), pops))

	b.add("trace.overhead_ratio", "ratio", ratio(tq.p50, plain.q.p50))
	b.add("trace.unattributed_ratio", "ratio", traced.tr.unattributed(ta.engineNs-tb.engineNs+ta.router.MergeNanos-tb.router.MergeNanos))
}
