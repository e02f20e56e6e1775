package main

import (
	"fmt"
	"math/rand"

	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// Workload inputs. Everything here is a function of --seed alone; the
// program receives only what these functions generate.

// constraint is the C-PNN constraint of every query: P = 0.3, Δ = 0.01,
// evaluated with the VR strategy (RS → L-SR → U-SR → refine).
var constraint = verify.Constraint{P: 0.3, Delta: 0.01}

const (
	// domain is the Long Beach-shaped dataset's extent.
	domain = 10000.0
	// hotPoints is the number of distinct query-hot points, well inside the
	// server's 4096-entry result cache.
	hotPoints = 384
	// hotZipfS skews query-hot's draws over its points.
	hotZipfS = 1.1
	// standingQueries is the number of C-PNN monitors on update-mix.
	standingQueries = 200
	// batchOps is the number of object updates per commit.
	batchOps = 8
)

// inputs is one seed's generated data.
type inputs struct {
	seed int64
	// pdfs is the dataset in load order; the store assigns stable IDs
	// 1..len(pdfs) in that order.
	pdfs []pdf.PDF
	// objs is the benchmark's own model of the live objects, indexed by
	// stable ID (index 0 unused).
	objs []interval
	// ops is the bulk-load batch (truncate + one insert per object), built
	// ahead of set-up so its cost is not counted as set-up.
	ops []store.Op
}

func makeInputs(seed int64) (*inputs, error) {
	ds, err := uncertain.GenerateUniform(uncertain.LongBeachOptions(seed))
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, objs: make([]interval, ds.Len()+1)}
	for i, o := range ds.Objects() {
		in.pdfs = append(in.pdfs, o.PDF)
		r := o.Region()
		in.objs[i+1] = interval{r.Lo, r.Hi}
	}
	if in.ops, err = store.DatasetOps(ds); err != nil {
		return nil, err
	}
	return in, nil
}

// rng returns a generator for one named input stream of this seed, so
// streams are independent of each other and of how long a run lasts.
func (in *inputs) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1000003 + stream))
}

// Stream numbers.
const (
	streamHotPoints = iota + 1
	streamClient0   // + client index: per-client query points
	streamClient1
	streamReader
	streamWarm
	streamStanding
	streamWriter
	streamMC
	streamAllocs
)

// pointStream yields unique uniform query points over the domain.
type pointStream struct{ r *rand.Rand }

func (p pointStream) next() float64 { return p.r.Float64() * domain }

// hotStream yields skewed draws over a fixed set of distinct points.
type hotStream struct {
	points []float64
	z      *rand.Zipf
}

func (in *inputs) hotSet() []float64 {
	r := in.rng(streamHotPoints)
	pts := make([]float64, hotPoints)
	for i := range pts {
		pts[i] = r.Float64() * domain
	}
	return pts
}

func (in *inputs) hotStream(client int, pts []float64) *hotStream {
	r := in.rng(streamClient0 + int64(client))
	return &hotStream{points: pts, z: rand.NewZipf(r, hotZipfS, 1, uint64(len(pts)-1))}
}

func (h *hotStream) next() (int, float64) {
	i := int(h.z.Uint64())
	return i, h.points[i]
}

// standingSpecs are the monitors' C-PNN specs at uniform points.
func (in *inputs) standingSpecs() []monitor.Spec {
	r := in.rng(streamStanding)
	out := make([]monitor.Spec, standingQueries)
	for i := range out {
		out[i] = monitor.Spec{Kind: monitor.KindCPNN, Q: r.Float64() * domain, Constraint: constraint}
	}
	return out
}

// updates yields the writer's batches: each op moves a uniformly chosen
// object by up to ±10 units, keeping its length, as a re-reported position
// would.
type updates struct {
	r *rand.Rand
	n int
}

func (in *inputs) updates() *updates {
	return &updates{r: in.rng(streamWriter), n: len(in.objs) - 1}
}

// next returns the next batch against the model objs (which the caller
// updates once the batch is acknowledged).
func (u *updates) next(objs []interval) ([]store.Op, []uint64, []interval) {
	ops := make([]store.Op, batchOps)
	ids := make([]uint64, batchOps)
	ivs := make([]interval, batchOps)
	for i := range ops {
		id := uint64(1 + u.r.Intn(u.n))
		old := objs[id]
		shift := (u.r.Float64()*2 - 1) * 10
		iv := interval{old.lo + shift, old.hi + shift}
		ops[i], ids[i], ivs[i] = store.UpdateObject(id, pdf.MustUniform(iv.lo, iv.hi)), id, iv
	}
	return ops, ids, ivs
}

// cpnnURL is the request target of one query.
func cpnnURL(q float64) string {
	return fmt.Sprintf("/v1/cpnn?q=%v&p=0.3&delta=0.01&strategy=vr&all=1", q)
}

// userBytes is the encoded size of the live objects as inserts: the user
// data the store holds.
func userBytes(objs []interval) (int, error) {
	ops := make([]store.Op, 0, len(objs))
	for id := 1; id < len(objs); id++ {
		if objs[id].hi > objs[id].lo {
			ops = append(ops, store.InsertObject(pdf.MustUniform(objs[id].lo, objs[id].hi)))
		}
	}
	b, err := store.EncodeOps(ops)
	return len(b), err
}
