package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/uncertain"
)

// Page-cache budgets. The Long Beach base file is ~1.6 MB; query-cold's
// budget is well below it, sharded-read splits the same total over its
// members, and query-hot's fits the whole file.
const (
	hotCacheBytes  = 64 << 20
	coldCacheBytes = 256 << 10
	shards         = 4
	// updateCheckpointBytes is update-mix's auto-checkpoint threshold: low
	// enough that the O(n) flatten runs several times per run.
	updateCheckpointBytes = 96 << 10
)

// env is one set-up program instance under test.
type env struct {
	srv     *server.Server
	h       http.Handler
	stores  []*store.Store
	dirs    []string
	cluster *shard.Cluster
	router  *shard.Router
	members []*timedMember

	// Set-up parts, for the store.* layer metrics.
	openDur, loadDur, ckptDur time.Duration
}

func (e *env) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if e.srv != nil {
		// Close checkpoints and closes an attached store.
		keep(e.srv.Close())
	}
	if e.router != nil {
		keep(e.router.Close())
	}
	if e.cluster != nil {
		keep(e.cluster.Close())
	}
	return first
}

// setupSingle builds query-hot, query-cold and update-mix's program: open a
// store, bulk-apply the dataset, checkpoint it into the paged base,
// optionally close and reopen it under opt's budget, and start the server.
func setupSingle(dir string, in *inputs, opt store.Options, reopen bool) (*env, error) {
	e := &env{dirs: []string{dir}}
	t0 := time.Now()
	st, err := store.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err := st.Apply(in.ops); err != nil {
		st.Close()
		return nil, err
	}
	t2 := time.Now()
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return nil, err
	}
	t3 := time.Now()
	e.openDur, e.loadDur, e.ckptDur = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if reopen {
		if err := st.Close(); err != nil {
			return nil, err
		}
		t4 := time.Now()
		if st, err = store.Open(dir, opt); err != nil {
			return nil, err
		}
		e.openDur = time.Since(t4)
	}
	e.stores = []*store.Store{st}
	if e.srv, err = server.New(server.Config{Store: st}); err != nil {
		st.Close()
		return nil, err
	}
	e.h = e.srv.Handler()
	return e, nil
}

// setupSharded builds sharded-read's program: split the dataset with
// shard.CreateCluster into K members, checkpoint each, close and reopen the
// cluster under the per-member budget, and start a router-mode server over
// timed decorators of the members.
func setupSharded(dir string, in *inputs, opt store.Options) (*env, error) {
	e := &env{}
	ids := make([]uint64, len(in.pdfs))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	view := &store.View{Dataset: uncertain.NewDataset(in.pdfs), IDs: ids, NextID: uint64(len(ids)) + 1}
	t0 := time.Now()
	c, err := shard.CreateCluster(dir, shards, view, store.Options{NoSync: opt.NoSync})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	for _, st := range c.Stores {
		if err := st.Checkpoint(); err != nil {
			c.Close()
			return nil, err
		}
	}
	t2 := time.Now()
	if err := c.Close(); err != nil {
		return nil, err
	}
	t3 := time.Now()
	if c, err = shard.OpenCluster(dir, opt); err != nil {
		return nil, err
	}
	e.loadDur, e.ckptDur, e.openDur = t1.Sub(t0), t2.Sub(t1), time.Since(t3)
	e.cluster, e.stores = c, c.Stores
	for i := range c.Stores {
		e.dirs = append(e.dirs, shard.Dir(dir, i))
	}
	var members []shard.Member
	for _, m := range c.Members() {
		tm := &timedMember{Member: m}
		e.members = append(e.members, tm)
		members = append(members, tm)
	}
	if e.router, err = shard.NewRouter(shard.RouterConfig{Members: members, Cuts: c.Meta.Cuts, NextID: c.Meta.NextID}); err != nil {
		c.Close()
		return nil, err
	}
	if e.srv, err = server.New(server.Config{ShardRouter: e.router}); err != nil {
		e.router.Close()
		c.Close()
		return nil, err
	}
	e.h = e.srv.Handler()
	return e, nil
}

// timedMember decorates a shard member: when the calling query carries an
// opTrace, its Bound and Gather calls become spans of that query; the items
// gathered are counted always.
type timedMember struct {
	shard.Member
	gathered atomic.Uint64
}

func (m *timedMember) Bound(ctx context.Context, q float64, k int) (shard.BoundInfo, error) {
	t := opTraceFrom(ctx)
	if t == nil {
		return m.Member.Bound(ctx, q, k)
	}
	start := time.Now()
	b, err := m.Member.Bound(ctx, q, k)
	t.add("shard.Bound", 1, start, time.Now())
	return b, err
}

func (m *timedMember) Gather(ctx context.Context, q, bound float64) ([]shard.Item, uint64, error) {
	t := opTraceFrom(ctx)
	start := time.Now()
	items, v, err := m.Member.Gather(ctx, q, bound)
	m.gathered.Add(uint64(len(items)))
	if t != nil {
		t.add("shard.Gather", 1, start, time.Now())
		t.mu.Lock()
		t.items = append(t.items, items...)
		t.mu.Unlock()
	}
	return items, v, err
}

// dirBytes sums the sizes of the regular files under the given directories.
func dirBytes(dirs []string) (int64, error) {
	var n int64
	for _, d := range dirs {
		err := filepath.Walk(d, func(_ string, fi os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if fi.Mode().IsRegular() {
				n += fi.Size()
			}
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("sizing %s: %w", d, err)
		}
	}
	return n, nil
}
