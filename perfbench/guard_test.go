package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadLayers runs every workload's traced run briefly and asserts
// that each still loads the layer it exists to load, that every metric
// BENCHMARK.json names is reported, that the checks pass and that layer
// measurements explain at least 90% of the measured time (the residue gate).
func TestWorkloadLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			seconds := 1.0
			if w == "update-mix" {
				seconds = 5 // enough commits in the traced phase for flattens
			}
			m := runFor(t, w, seconds, true)
			for _, name := range spec.perLayer {
				if _, ok := m[name]; !ok {
					t.Errorf("per-layer metric %s not reported", name)
				}
			}
			if r := m["trace.unattributed_ratio"]; r >= 0.10 {
				t.Errorf("trace.unattributed_ratio = %.3f, want < 0.10", r)
			}
			switch w {
			case "query-hot":
				if v := m["pagecache.misses_per_query"]; v != 0 {
					t.Errorf("pagecache.misses_per_query = %g on query-hot, want 0", v)
				}
				if v := m["server.cache_hit_ratio"]; v < 0.99 {
					t.Errorf("server.cache_hit_ratio = %g on query-hot, want ≥ 0.99", v)
				}
			case "query-cold":
				if v := m["pagecache.misses_per_query"]; v <= 0 {
					t.Errorf("pagecache.misses_per_query = %g on query-cold, want > 0", v)
				}
				if v := m["server.cache_hit_ratio"]; v != 0 {
					t.Errorf("server.cache_hit_ratio = %g on query-cold, want 0", v)
				}
			case "sharded-read":
				if v := m["pagecache.misses_per_query"]; v <= 0 {
					t.Errorf("pagecache.misses_per_query = %g on sharded-read, want > 0", v)
				}
				if v := m["shard.gather_calls_per_query"]; v <= 0 || v >= shards {
					t.Errorf("shard.gather_calls_per_query = %g on sharded-read, want in (0, %d)", v, shards)
				}
			case "update-mix":
				for _, name := range []string{"store.commit_p50_ms", "store.commit_p99_ms",
					"monitor.push_p50_ms", "monitor.push_p90_ms", "store.write_bytes_per_user_byte"} {
					if m[name] <= 0 {
						t.Errorf("%s = %g on update-mix, want > 0", name, m[name])
					}
				}
				commits := m["store.commits"]
				if v := m["store.stalled_commits"]; v <= 0.01*commits {
					t.Errorf("store.stalled_commits = %g of %g commits on update-mix, want > 1%%", v, commits)
				}
			}
		})
	}
}

// TestEndToEndMetricSet checks that an untraced run of a write workload
// and of a read workload each report every end-to-end metric BENCHMARK.json
// names, each non-zero.
func TestEndToEndMetricSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	spec := readSpec(t)
	for _, c := range []struct {
		workload string
		seconds  float64
	}{{"update-mix", 6}, {"query-cold", 2}} {
		m := runFor(t, c.workload, c.seconds, false)
		for _, name := range spec.endToEnd {
			if v, ok := m[name]; !ok || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %g (reported %v)", c.workload, name, v, ok)
			}
		}
		if len(m) != len(spec.endToEnd) {
			t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", c.workload, len(m), len(spec.endToEnd))
		}
	}
}

type benchSpec struct{ endToEnd, perLayer []string }

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	for _, m := range f.EndToEnd {
		s.endToEnd = append(s.endToEnd, m.Name)
	}
	for _, m := range f.PerLayer {
		s.perLayer = append(s.perLayer, m.Name)
	}
	return s
}

func runFor(t *testing.T, workload string, seconds float64, trace bool) map[string]float64 {
	t.Helper()
	dir := t.TempDir()
	o, err := runBench(config{workload: workload, seed: 5, seconds: seconds, trace: trace,
		work: filepath.Join(dir, "work"), spans: filepath.Join(dir, "spans.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if !o.correct || o.failed != 0 {
		t.Fatalf("correct=%v failed=%d errors=%v", o.correct, o.failed, o.health.Errors)
	}
	m := map[string]float64{}
	for _, x := range o.metrics {
		m[x.name] = x.value
	}
	return m
}
