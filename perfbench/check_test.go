package main

import (
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// Each correctness check must accept the program's real output and reject
// a deliberately wrong one.

// smallInputs is a seed's Long Beach-shaped data cut to n objects, so the
// program under the checks sets up in milliseconds.
func smallInputs(t *testing.T, n int) *inputs {
	t.Helper()
	in, err := makeInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	in.pdfs = in.pdfs[:n]
	in.objs = in.objs[:n+1]
	in.ops = in.ops[:n+1] // truncate + the first n inserts
	return in
}

// realBody asks a store-backed server for q and returns the raw body.
func realBody(t *testing.T, e *env, q float64) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, cpnnURL(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	w := newRespWriter()
	e.h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		t.Fatalf("status %d: %s", w.code, w.buf.String())
	}
	return append([]byte(nil), w.buf.Bytes()...)
}

func newSmallEnv(t *testing.T, in *inputs) *env {
	t.Helper()
	e, err := setupSingle(filepath.Join(t.TempDir(), "store"), in, store.Options{NoSync: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.close() })
	return e
}

// richQuery finds a query point whose answer has several candidates, one
// answer and one failed candidate, so every mutation below has a target.
func richQuery(t *testing.T, e *env, in *inputs) (float64, []byte, *cpnnBody) {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		q := in.objs[1+r.Intn(len(in.objs)-1)].lo
		raw := realBody(t, e, q)
		b, err := parseBody(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Candidates) >= 3 && len(b.Answers) >= 1 && len(b.Candidates) > len(b.Answers) {
			return q, raw, b
		}
	}
	t.Fatal("no query point with answers and failures")
	return 0, nil, nil
}

func TestChecksAcceptProgramOutput(t *testing.T) {
	in := smallInputs(t, 2000)
	e := newSmallEnv(t, in)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		q := r.Float64() * domain
		b, err := parseBody(realBody(t, e, q))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCandidates(in.objs, b); err != nil {
			t.Error(err)
		}
		if err := checkClassification(b); err != nil {
			t.Error(err)
		}
		if i < 5 {
			if err := checkProbability(in.objs, b, r); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestCandidateCheckRejectsDroppedAndExtra(t *testing.T) {
	in := smallInputs(t, 2000)
	e := newSmallEnv(t, in)
	_, _, b := richQuery(t, e, in)

	dropped := *b
	dropped.Candidates = b.Candidates[1:]
	if checkCandidates(in.objs, &dropped) == nil {
		t.Error("a dropped candidate passed")
	}

	extra := *b
	inSet := map[uint64]bool{}
	for _, c := range b.Candidates {
		inSet[c.ID] = true
	}
	for id := uint64(1); ; id++ {
		if !inSet[id] {
			extra.Candidates = append(append([]answer(nil), b.Candidates...), answer{ID: id, Status: "fail"})
			break
		}
	}
	if checkCandidates(in.objs, &extra) == nil {
		t.Error("an extra candidate passed")
	}
}

func TestProbabilityCheckRejectsExcludingBound(t *testing.T) {
	in := smallInputs(t, 2000)
	e := newSmallEnv(t, in)
	_, _, b := richQuery(t, e, in)
	// The first answer has probability ≥ P − Δ; a bound of [0, 0.01] excludes it.
	bad := *b
	bad.Candidates = append([]answer(nil), b.Candidates...)
	for i := range bad.Candidates {
		if bad.Candidates[i].ID == b.Answers[0].ID {
			bad.Candidates[i].L, bad.Candidates[i].U = 0, 0.01
		}
	}
	if err := checkProbability(in.objs, &bad, rand.New(rand.NewSource(1))); err == nil {
		t.Error("a bound excluding the sampled probability passed")
	}
}

func TestClassificationCheckRejectsFlips(t *testing.T) {
	in := smallInputs(t, 2000)
	e := newSmallEnv(t, in)
	_, _, b := richQuery(t, e, in)

	// satisfy → fail: the answer leaves the answer list and is relabelled.
	toFail := *b
	toFail.Answers = b.Answers[1:]
	toFail.Candidates = append([]answer(nil), b.Candidates...)
	for i := range toFail.Candidates {
		if toFail.Candidates[i].ID == b.Answers[0].ID {
			toFail.Candidates[i].Status = "fail"
		}
	}
	if checkClassification(&toFail) == nil {
		t.Error("a satisfy → fail flip passed")
	}

	// fail → satisfy: a failed candidate joins the answers.
	toSat := *b
	toSat.Candidates = append([]answer(nil), b.Candidates...)
	for i, c := range toSat.Candidates {
		if c.Status == "fail" {
			toSat.Candidates[i].Status = "satisfy"
			toSat.Answers = append(append([]answer(nil), b.Answers...), toSat.Candidates[i])
			break
		}
	}
	if checkClassification(&toSat) == nil {
		t.Error("a fail → satisfy flip passed")
	}
}

func TestSameBodyCheckRejectsDifferentHit(t *testing.T) {
	in := smallInputs(t, 2000)
	e := newSmallEnv(t, in)
	q, miss, _ := richQuery(t, e, in)
	hit := realBody(t, e, q)
	if err := checkSameBody(q, miss, hit); err != nil {
		t.Fatalf("a real cache hit failed: %v", err)
	}
	bad := []byte(strings.Replace(string(hit), `"status":"satisfy"`, `"status":"fail"`, 1))
	if checkSameBody(q, miss, bad) == nil {
		t.Error("a differing hit body passed")
	}
}

func TestShardBodyCheck(t *testing.T) {
	in := smallInputs(t, 2000)
	single := newSmallEnv(t, in)
	sh, err := setupSharded(filepath.Join(t.TempDir(), "cluster"), in, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.close()
	q, one, _ := richQuery(t, single, in)
	many := realBody(t, sh, q)
	if err := checkShardBody(q, many, one); err != nil {
		t.Fatalf("a real sharded body failed: %v", err)
	}
	bad := []byte(strings.Replace(string(many), `"candidates":[{"id":`, `"candidates":[{"id":9`, 1))
	if checkShardBody(q, bad, one) == nil {
		t.Error("a differing sharded body passed")
	}
}

func TestStateCheckRejectsMissingUpdate(t *testing.T) {
	in := smallInputs(t, 500)
	e := newSmallEnv(t, in)
	objs := append([]interval(nil), in.objs...)
	up := in.updates()
	up.n = len(objs) - 1
	ops, ids, ivs := up.next(objs)
	if _, err := e.stores[0].Apply(ops); err != nil {
		t.Fatal(err)
	}
	for j, id := range ids {
		objs[id] = ivs[j]
	}
	b := &bench{e: e}
	got, err := b.liveObjects()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkState("store", got, objs); err != nil {
		t.Fatalf("the real store state failed: %v", err)
	}
	// The model acknowledges one more update the store never saw.
	objs[ids[0]] = interval{objs[ids[0]].lo + 1, objs[ids[0]].hi + 1}
	if checkState("store", got, objs) == nil {
		t.Error("a store missing an acknowledged update passed")
	}
	delete(got, ids[1])
	objs[ids[0]] = ivs[0]
	if checkState("store", got, objs) == nil {
		t.Error("a store missing an object passed")
	}
}

func TestStandingCheckRejectsStaleAnswer(t *testing.T) {
	if checkStanding(1, 5, []byte(`[{"id":1}]`), []byte(`[{"id":1}]`)) != nil {
		t.Error("equal answers failed")
	}
	if checkStanding(1, 5, []byte(`[{"id":1}]`), []byte(`[{"id":2}]`)) == nil {
		t.Error("a stale standing answer passed")
	}
}

func TestSelfTimes(t *testing.T) {
	// root 0..100; server 10..90; two parallel member calls 20..60 and
	// 40..70 under the server.
	spans := []span{
		{Name: "query", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "server", ID: 1, Parent: 0, Start: 10, End: 90},
		{Name: "bound", ID: 2, Parent: 1, Start: 20, End: 60},
		{Name: "bound", ID: 3, Parent: 1, Start: 40, End: 70},
	}
	got := selfTimes(spans)
	want := map[string]int64{"query": 20, "server": 30, "bound": 50}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
}

func TestUnattributed(t *testing.T) {
	tr := newTracer()
	// An evaluated query: root 0..100, its call 10..90, two member calls
	// covering 20..70. Nothing covers the call's 30 ns of self time.
	miss := &opTrace{spans: []span{
		{Name: "query", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "server.ServeHTTP", ID: 1, Parent: 0, Start: 10, End: 90},
		{Name: "shard.Bound", ID: 2, Parent: 1, Start: 20, End: 60},
		{Name: "shard.Bound", ID: 3, Parent: 1, Start: 40, End: 70},
	}}
	tr.finish(miss, 0)
	// A cache hit: root 0..10, its call 2..10, all of it the cache's.
	hit := &opTrace{spans: []span{
		{Name: "query", ID: 0, Parent: -1, Start: 0, End: 10},
		{Name: "server.ServeHTTP", ID: 1, Parent: 0, Start: 2, End: 10},
	}}
	tr.finish(hit, 8)
	// Residue: 20 + 30 (miss) + 2 (hit), less 12 of engine time measured
	// without a span, over 110.
	if got, want := tr.unattributed(12), 40.0/110; got != want {
		t.Errorf("unattributed = %g, want %g", got, want)
	}
	if got := tr.unattributed(1000); got != 0 {
		t.Errorf("unattributed with everything explained = %g, want 0", got)
	}
}

func TestPromSum(t *testing.T) {
	prom := `# TYPE cpnn_query_phase_seconds histogram
cpnn_query_phase_seconds_bucket{phase="filter",endpoint="cpnn",le="+Inf"} 3
cpnn_query_phase_seconds_sum{phase="filter",endpoint="cpnn"} 0.25
cpnn_query_phase_seconds_sum{phase="derive",endpoint="cpnn"} 1.5
cpnn_query_phase_seconds_sum{phase="derive",endpoint="knn"} 7
cpnn_query_phase_seconds_count{phase="derive",endpoint="cpnn"} 3
`
	if got := promSum(prom, "cpnn_query_phase_seconds_sum{", `endpoint="cpnn"`); got != 1.75 {
		t.Errorf("promSum = %g, want 1.75", got)
	}
}

func TestPushLatencyJoin(t *testing.T) {
	var cs []commitRec
	base := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		cs = append(cs, commitRec{due: base.Add(time.Duration(10*i) * time.Millisecond), version: uint64(5 + 2*i)})
	}
	// Version 6 lies between commits 0 (v5) and 1 (v7): it belongs to commit 1.
	ps := []pushRec{{version: 5, at: base.Add(time.Millisecond)}, {version: 6, at: base.Add(13 * time.Millisecond)}}
	got := pushLatencies(cs, ps)
	if len(got) != 2 || got[0] != 1e6 || got[1] != 3e6 {
		t.Fatalf("push latencies %v, want [1e6 3e6]", got)
	}
}
