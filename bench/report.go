package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// This file is the suite mode's report — every workload, end-to-end then
// traced, one or more sets of it in one file — and the -compare tool that
// holds one report against another within the metrics' bounds.

type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Commit: commit}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// report is what -out writes. Each set holds every workload's end-to-end run
// and traced run, keyed by workload name.
type report struct {
	Host    hostInfo   `json:"host"`
	Seed    uint64     `json:"seed"`
	Seconds float64    `json:"seconds"`
	Clients int        `json:"clients"`
	Started string     `json:"started"`
	Sets    []suiteSet `json:"sets"`
}

type suiteSet struct {
	EndToEnd map[string]result `json:"end_to_end"`
	Traced   map[string]result `json:"traced"`
}

func suiteMain(o runOpts, sets int, out string) int {
	rep := report{Host: host(), Seed: o.seed, Seconds: o.seconds, Clients: sizing(),
		Started: time.Now().UTC().Format(time.RFC3339)}
	code := 0
	for s := 0; s < sets; s++ {
		set := suiteSet{EndToEnd: map[string]result{}, Traced: map[string]result{}}
		for _, sp := range specs {
			for _, o.trace = range []bool{false, true} {
				res, err := runWorkload(sp, o)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				printResult(os.Stdout, res)
				if res.Failed > 0 {
					code = 1
				}
				if o.trace {
					set.Traced[sp.name] = res
				} else {
					set.EndToEnd[sp.name] = res
				}
			}
		}
		rep.Sets = append(rep.Sets, set)
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// printResult prints every metric of a run by name, with its unit, and flags
// a run that measured the harness rather than the program.
func printResult(w io.Writer, res result) {
	defs, mode := endToEnd, "end-to-end"
	if res.Trace {
		defs, mode = perLayer, "traced"
	}
	fmt.Fprintf(w, "== %s  %s  seed=%d seconds=%g clients=%d  attempted=%d failed=%d\n",
		res.Workload, mode, res.Seed, res.Seconds, res.Clients, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	keys := make([]string, 0, len(res.Diag))
	for k := range res.Diag {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (%s %.4f)\n", k, res.Diag[k])
	}
	gen, late := res.Diag["harness_frac"], res.Diag["late_frac"]
	if res.Trace {
		gen, late = res.Metrics["workload.gen_frac"], res.Metrics["workload.late_frac"]
	}
	if gen >= 0.10 || late >= 0.01 {
		fmt.Fprintf(w, "  WARNING: harness share %.3f, late sends %.4f: this run measures the harness\n", gen, late)
	}
}

// compareMain prints, per workload and end-to-end metric, both reports'
// values (medians over their sets), the relative difference, the bound and a
// verdict, and returns non-zero when any metric is worse.
//
// worse: b is worse than a by more than the bound. unresolved: not worse,
// but the sets inside a report spread wider than the bound, so "unchanged"
// cannot be told from "changed". ok otherwise.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	fmt.Printf("%-13s %-15s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "spread", "verdict")
	code := 0
	for _, sp := range specs {
		for _, d := range endToEnd {
			a, spreadA := overSets(reps[0], sp.name, d.name)
			b, spreadB := overSets(reps[1], sp.name, d.name)
			if a == 0 {
				continue
			}
			diff := (b - a) / a
			worse := diff
			if d.higherBetter {
				worse = -diff
			}
			spread := max(spreadA, spreadB)
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "worse"
				code = 1
			case spread > d.bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-13s %-15s %14.4f %14.4f %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				sp.name, d.name, a, b, 100*diff, 100*d.bound, 100*spread, verdict)
		}
	}
	return code
}

// overSets is a metric's median over a report's sets, and the sets' full
// range as a share of that median (0 for a single set).
func overSets(rep report, workload, metric string) (med, spread float64) {
	var v []float64
	for _, s := range rep.Sets {
		if r, ok := s.EndToEnd[workload]; ok {
			v = append(v, r.Metrics[metric])
		}
	}
	if len(v) == 0 {
		return 0, 0
	}
	slices.Sort(v)
	med = median(v)
	if med != 0 {
		spread = (v[len(v)-1] - v[0]) / med
	}
	return med, spread
}
