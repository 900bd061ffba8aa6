package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and spec.go name the same workloads and metrics, with the
// same units, directions and bounds, in names the driver accepts.
func TestManifestMatchesSpec(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / spec.go %q, or their reasons differ", i, w.Name, specs[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name, or a reason over 200 characters", w.Name)
		}
	}
	if !slices.Equal(m.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(m.Paths, []string{"bench"}) {
		t.Errorf("command %q over paths %q: the benchmark is bench/run.sh and lives in bench/", m.Command, m.Paths)
	}
	if m.RunSeconds != int(defaultSeconds) {
		t.Errorf("run_seconds %d, the program's default %v", m.RunSeconds, defaultSeconds)
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			better := "lower"
			if w.higherBetter {
				better = "higher"
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, spec.go {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %q (%q): a character outside what the driver accepts", kind, g.Name, g.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s %q: bound %v, spec.go %v (must be in (0, 0.25])", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// Every workload runs once, end-to-end and traced, on a tiny domain with
// 200 ms phases: nothing fails, exactly the named metrics come out, and the
// trace is written with its spans tiling the requests.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 7, seconds: 0.8, trace: trace, outDir: dir, probe: 2 * time.Millisecond}
			res, err := runWorkload(sp.tiny(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", sp.name, trace, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d named", sp.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: %s is named but not emitted", sp.name, trace, d.name)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, d.name, v)
				}
			}
			if !trace {
				continue
			}
			if c := res.Diag["trace_coverage"]; c < 0.98 || c > 1 {
				t.Errorf("%s: child spans cover %.4f of the request spans", sp.name, c)
			}
			f, err := os.Open(filepath.Join(dir, "trace-"+sp.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			lines := 0
			for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
				var s struct {
					ID       uint64 `json:"id"`
					Stage    string `json:"stage"`
					Workload string `json:"workload"`
				}
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.ID == 0 || s.Stage == "" || s.Workload != sp.name {
					t.Fatalf("%s: trace line %d: %q: %v", sp.name, lines, sc.Text(), err)
				}
			}
			f.Close()
			if lines == 0 || float64(lines) != res.Metrics["trace.spans"] {
				t.Errorf("%s: %d trace lines, trace.spans %v", sp.name, lines, res.Metrics["trace.spans"])
			}
			// Only the layers a workload uses report numbers.
			if got := res.Metrics["client.frames_out_per_req"] > 0; got != sp.net {
				t.Errorf("%s: client counters non-zero = %v", sp.name, got)
			}
			if got := res.Metrics["nativejoin.seq_ns_per_probe"] > 0; got != (sp.kind == kindJoin) {
				t.Errorf("%s: nativejoin probes ran = %v", sp.name, got)
			}
			if sp.kind != kindMixed && res.Metrics["serve.rebuilds_per_s"] != 0 {
				t.Errorf("%s: a read-only workload rebuilt an epoch", sp.name)
			}
		}
	}
}
