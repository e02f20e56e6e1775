// Command perfbench is the repository's benchmark of the C-PNN serving
// stack. It generates one of four workloads from a seed, sets the program up
// (store, page cache, monitor, shard router, HTTP handler — all in process),
// drives it, checks every kept answer against the benchmark's own
// computation, and prints one JSON result line. See README.md.
//
//	go run . --workload query-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: query-hot, query-cold, update-mix or sharded-read")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "directory for the stores (emptied first, removed after)")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(stderr, "perfbench: --workload must be one of %v\n", workloadNames)
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if !(cfg.seconds > 0) || math.IsInf(cfg.seconds, 0) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.spans = fmt.Sprintf("%s/%s-seed%d.jsonl", *spans, cfg.workload, cfg.seed)

	o, err := runBench(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	h, _ := json.Marshal(o.health)
	fmt.Fprintf(stdout, "health %s\n", h)
	if !o.health.Steady {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: run is UNSTEADY: %v\n", cfg.workload, cfg.seed, o.health.Unsteady)
	}
	for _, e := range o.health.Errors {
		fmt.Fprintf(stderr, "perfbench: %s\n", e)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.correct, o.attempted, o.failed, map[string]val{}}
	for _, m := range o.metrics {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
