// Command bench is the repository's benchmark: one process that builds the
// serving stack (serve.Service, and for net_lookup wire.Server and
// client.Remote over loopback) through its public API, drives five named
// workloads, verifies every result against an oracle, and prints every
// metric by name with its unit. README.md documents the workloads, the
// metrics and how they interact; BENCHMARK.json at the repository root names
// them for the driver.
//
//	bash bench/run.sh -seed 7 -out bench/out/run.json       all workloads, end-to-end then traced
//	bash bench/run.sh -sets 2 -out bench/out/a.json          the suite twice, into one report
//	bash bench/run.sh -compare a.json b.json                  check b against a within the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run, as the driver makes it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// commit is stamped by run.sh; the driver's checkout is not a repository.
var commit = "unknown"

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print one result line; empty runs all five")
		seed     = flag.Uint64("seed", 7, "the only source of randomness: same seed, same inputs")
		secs     = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 the traced per-layer run")
		out      = flag.String("out", "", "suite: write the report here")
		outDir   = flag.String("outdir", "bench/out", "directory trace-<workload>.jsonl files are written to")
		sets     = flag.Int("sets", 1, "suite: run everything this many times into one report")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	switch {
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *workload != "":
		os.Exit(driverMain(*workload, runOpts{seed: *seed, seconds: *secs, trace: *trace == 1, outDir: *outDir, probe: defaultProbe}))
	default:
		os.Exit(suiteMain(runOpts{seed: *seed, seconds: *secs, outDir: *outDir, probe: defaultProbe}, *sets, *out))
	}
}

// driverMain makes one run and prints, as the last line of standard output,
// the one JSON object the driver reads.
func driverMain(name string, o runOpts) int {
	sp, ok := specByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	res, err := runWorkload(sp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(os.Stderr, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{res.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
