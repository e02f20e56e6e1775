package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// The checks below judge the program's outputs against computations the
// benchmark makes on its own from the generated intervals, or against
// properties the C-PNN method must have. None compares against a saved copy
// of earlier output. Each returns nil or an error naming what is wrong;
// check_test.go feeds every one of them a deliberately wrong output.

// interval is one object's uniform uncertainty region [lo, hi].
type interval struct{ lo, hi float64 }

func (iv interval) near(q float64) float64 {
	switch {
	case q < iv.lo:
		return iv.lo - q
	case q > iv.hi:
		return q - iv.hi
	default:
		return 0
	}
}

func (iv interval) far(q float64) float64 {
	return math.Max(math.Abs(q-iv.lo), math.Abs(q-iv.hi))
}

// answer is one classified object of a /v1/cpnn body.
type answer struct {
	ID     uint64  `json:"id"`
	L      float64 `json:"l"`
	U      float64 `json:"u"`
	Status string  `json:"status"`
}

// cpnnBody is the part of a /v1/cpnn?all=1 body the checks and the per-layer
// counters read.
type cpnnBody struct {
	Query      float64  `json:"query"`
	P          float64  `json:"p"`
	Delta      float64  `json:"delta"`
	Version    uint64   `json:"version"`
	Answers    []answer `json:"answers"`
	Candidates []answer `json:"candidates"`
	Stats      struct {
		Candidates   int      `json:"candidates"`
		Subregions   int      `json:"subregions"`
		Verifiers    []string `json:"verifiers"`
		UnknownAfter []int    `json:"unknown_after"`
		Refined      int      `json:"refined"`
		Integrations int      `json:"integrations"`
	} `json:"stats"`
}

func parseBody(b []byte) (*cpnnBody, error) {
	var out cpnnBody
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("decoding /v1/cpnn body: %v", err)
	}
	return &out, nil
}

// scanCandidates is the independent filter: a linear scan over every object
// (objs is indexed by stable ID; index 0 and zero-width entries are unused)
// taking each object whose near distance is at most the minimum far
// distance. The result is ascending by ID.
func scanCandidates(objs []interval, q float64) []uint64 {
	fmin := math.Inf(1)
	for id := 1; id < len(objs); id++ {
		if objs[id].hi > objs[id].lo {
			fmin = math.Min(fmin, objs[id].far(q))
		}
	}
	var ids []uint64
	for id := 1; id < len(objs); id++ {
		if objs[id].hi > objs[id].lo && objs[id].near(q) <= fmin {
			ids = append(ids, uint64(id))
		}
	}
	return ids
}

// checkCandidates compares the body's candidate set with the linear scan.
func checkCandidates(objs []interval, b *cpnnBody) error {
	want := scanCandidates(objs, b.Query)
	if len(b.Candidates) != len(want) {
		return fmt.Errorf("q=%g: %d candidates, linear scan finds %d", b.Query, len(b.Candidates), len(want))
	}
	got := make([]uint64, len(b.Candidates))
	for i, c := range b.Candidates {
		got[i] = c.ID
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("q=%g: candidate set differs from the linear scan at id %d (scan) vs %d (body)", b.Query, want[i], got[i])
		}
	}
	return nil
}

// checkClassification checks the C-PNN contract: every answer has U ≥ P and
// (L ≥ P or U−L ≤ Δ), is a candidate, and is labelled satisfy; every other
// candidate has U < P and is labelled fail; bounds lie in [0, 1].
func checkClassification(b *cpnnBody) error {
	const eps = 1e-12
	inAnswer := map[uint64]bool{}
	for _, a := range b.Answers {
		inAnswer[a.ID] = true
		if a.Status != "satisfy" || a.U < b.P || !(a.L >= b.P || a.U-a.L <= b.Delta+eps) {
			return fmt.Errorf("q=%g: answer %d [%g, %g] %s violates U ≥ P and (L ≥ P or U−L ≤ Δ)", b.Query, a.ID, a.L, a.U, a.Status)
		}
	}
	seen := 0
	for _, c := range b.Candidates {
		if c.L < -eps || c.U > 1+eps || c.L > c.U+eps {
			return fmt.Errorf("q=%g: candidate %d has bound [%g, %g]", b.Query, c.ID, c.L, c.U)
		}
		if inAnswer[c.ID] {
			seen++
			if c.Status != "satisfy" {
				return fmt.Errorf("q=%g: answer %d is a %s candidate", b.Query, c.ID, c.Status)
			}
			continue
		}
		if c.U >= b.P || c.Status != "fail" {
			return fmt.Errorf("q=%g: non-answer candidate %d [%g, %g] %s is not a U < P failure", b.Query, c.ID, c.L, c.U, c.Status)
		}
	}
	if seen != len(b.Answers) {
		return fmt.Errorf("q=%g: %d answers are not candidates", b.Query, len(b.Answers)-seen)
	}
	return nil
}

// mcSamples is the Monte-Carlo sample count per probability check; the
// tolerance below is 5 standard errors of a proportion at this count plus a
// margin for the engine's numeric integration.
const mcSamples = 20000

func mcTolerance(p float64) float64 {
	return 5*math.Sqrt(math.Max(p*(1-p), 1e-4)/mcSamples) + 2e-3
}

// checkProbability estimates each candidate's nearest-neighbor probability
// by sampling a point from every candidate's raw interval and counting which
// is nearest, and requires the estimate to lie within [L, U] widened by the
// sampling error. Objects outside the candidate set cannot be nearest (their
// near point lies beyond some object's far point), so sampling the candidates
// alone is exact.
func checkProbability(objs []interval, b *cpnnBody, rng *rand.Rand) error {
	ids := scanCandidates(objs, b.Query)
	wins := make([]int, len(ids))
	for s := 0; s < mcSamples; s++ {
		best, bestD := -1, math.Inf(1)
		for i, id := range ids {
			iv := objs[id]
			if d := math.Abs(iv.lo + rng.Float64()*(iv.hi-iv.lo) - b.Query); d < bestD {
				best, bestD = i, d
			}
		}
		wins[best]++
	}
	pos := map[uint64]int{}
	for i, id := range ids {
		pos[id] = i
	}
	for _, c := range b.Candidates {
		i, ok := pos[c.ID]
		if !ok {
			return fmt.Errorf("q=%g: candidate %d is not in the scanned candidate set", b.Query, c.ID)
		}
		p := float64(wins[i]) / mcSamples
		if tol := mcTolerance(p); p < c.L-tol || p > c.U+tol {
			return fmt.Errorf("q=%g: candidate %d sampled probability %.4f outside bound [%g, %g] ± %.4f", b.Query, c.ID, p, c.L, c.U, tol)
		}
	}
	return nil
}

// checkSameBody requires a cache hit (or a collapsed shared evaluation) to
// return the miss body byte for byte.
func checkSameBody(q float64, miss, hit []byte) error {
	if !bytes.Equal(miss, hit) {
		return fmt.Errorf("q=%g: cached body (%d bytes) differs from the miss body (%d bytes)", q, len(hit), len(miss))
	}
	return nil
}

// stripVersion removes the "version" member, the one field in which a
// sharded body may differ from a single-store one (it carries the cluster's
// version sum).
func stripVersion(b []byte) []byte {
	i := bytes.Index(b, []byte(`,"version":`))
	if i < 0 {
		return b
	}
	j := i + len(`,"version":`)
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	out := make([]byte, 0, len(b)-(j-i))
	return append(append(out, b[:i]...), b[j:]...)
}

// checkShardBody requires the sharded body to equal the single-store body
// for the same point byte for byte, apart from the version.
func checkShardBody(q float64, sharded, single []byte) error {
	if !bytes.Equal(stripVersion(sharded), stripVersion(single)) {
		return fmt.Errorf("q=%g: sharded body differs from the single-store body", q)
	}
	return nil
}

// checkState requires a store's live objects (stable ID → interval) to equal
// the benchmark's model of every acknowledged update.
func checkState(what string, got map[uint64]interval, model []interval) error {
	n := 0
	for id := 1; id < len(model); id++ {
		want := model[id]
		if want.hi <= want.lo {
			continue
		}
		n++
		iv, ok := got[uint64(id)]
		if !ok {
			return fmt.Errorf("%s: object %d is missing", what, id)
		}
		if iv != want {
			return fmt.Errorf("%s: object %d is [%g, %g], the last acknowledged update made it [%g, %g]", what, id, iv.lo, iv.hi, want.lo, want.hi)
		}
	}
	if len(got) != n {
		return fmt.Errorf("%s: %d live objects, the model holds %d", what, len(got), n)
	}
	return nil
}

// checkStanding requires a standing query's maintained answer to equal a
// fresh evaluation on the final view.
func checkStanding(id uint64, q float64, standing, fresh []byte) error {
	if !bytes.Equal(standing, fresh) {
		return fmt.Errorf("monitor %d (q=%g): standing answer differs from a fresh evaluation", id, q)
	}
	return nil
}
