package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/client"
	"repro/internal/serve"
)

// This file runs one workload once: set-up, warm-up, the measured phases,
// teardown, and the arithmetic from recorded samples to named metrics. An
// end-to-end run (trace off) reports the end-to-end metrics; a traced
// run reports the per-layer metrics and writes trace-<workload>.jsonl.

// runOpts are one run's arguments.
type runOpts struct {
	seed    uint64
	seconds float64 // measured seconds, split over the phases by the shares in spec.go
	trace   bool
	outDir  string        // receives trace-<workload>.jsonl on a traced run
	probe   time.Duration // time each single-layer probe measures for
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Clients   int                `json:"clients"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Diag holds diagnostics that are not metrics: the sample counts behind
	// every quantile, the paced generator's lateness, and the raw tails
	// that spread too much between runs to gate on.
	Diag map[string]float64 `json:"diag"`
}

// count adds the phases' ops to the run's attempted and failed totals.
func (res *result) count(phases ...phaseOut) {
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
}

// phaseOut is one phase, merged over its clients.
type phaseOut struct {
	start, span, wall time.Duration // span is the scheduled length, wall what it took
	interval          time.Duration // paced: one client's send interval
	cpu               time.Duration // process CPU over the phase
	samples           []sample
	late              []time.Duration
	attempted, failed int64
	harness           time.Duration
	traces            []clientTrace
	// A closed phase keeps each segment's throughput and median latency next
	// to the merged samples.
	segKops, segP50 []float64
}

func (p phaseOut) ok() int64 { return p.attempted - p.failed }

// absorb merges a later phase's samples and totals into p.
func (p *phaseOut) absorb(q phaseOut) {
	if p.span == 0 {
		p.start, p.interval = q.start, q.interval
	}
	p.span += q.span
	p.wall += q.wall
	p.cpu += q.cpu
	p.samples = append(p.samples, q.samples...)
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.harness += q.harness
	p.traces = append(p.traces, q.traces...)
	p.segKops = append(p.segKops, q.segKops...)
	p.segP50 = append(p.segP50, q.segP50...)
}

// kops is verified ops per millisecond of wall time: over the phase, or for
// a segmented closed phase the quiet quarter of its segments.
func (p phaseOut) kops() float64 {
	if len(p.segKops) > 0 {
		return quiet(p.segKops, true)
	}
	return float64(p.ok()) / p.wall.Seconds() / 1000
}

// p50 is the median request latency: over the phase, or for a segmented
// closed phase the quiet quarter of its segments' medians.
func (p phaseOut) p50() time.Duration {
	if len(p.segP50) > 0 {
		return time.Duration(quiet(p.segP50, false))
	}
	return quantile(sortedLatencies(p.samples), 0.50)
}

// windowP99s cuts a paced phase into windows of pacedWindow by each request's
// scheduled time and returns every window's p99 latency.
func (p phaseOut) windowP99s() []float64 {
	n := max(int(p.span/pacedWindow), 1)
	return windowQuantiles(byWindow(p.samples, p.start, p.span, n), 0.99)
}

// runner drives one built service with one load generator per client.
type runner struct {
	sp      spec
	clk     wallClock
	workers []*worker
	traced  bool // record every request's stamps, for the trace
}

// newRunner starts a run clock and the clients' generator streams; instance
// tells the streams of one run's successive services apart.
func newRunner(sp spec, e *env, in inputs, seed uint64, clients, instance int) *runner {
	r := &runner{sp: sp, clk: wallClock{start: time.Now()}}
	for _, drv := range e.drivers(sp, in, seed, clients, instance) {
		r.workers = append(r.workers, newWorker(r.clk, drv, sp))
	}
	return r
}

// phase runs every client through one closed or paced phase of length dur
// and waits for all of them to drain.
func (r *runner) phase(name string, paced bool, dur time.Duration) phaseOut {
	clients := len(r.workers)
	interval := time.Duration(float64(r.sp.vector*clients) / r.sp.pacedOps * float64(time.Second))
	out := phaseOut{start: r.clk.now(), span: dur, interval: interval}
	cpu0 := cpuTime()
	recs := make([]*phaseRec, clients)
	var wg sync.WaitGroup
	for i, w := range r.workers {
		recs[i] = &phaseRec{paced: paced, traced: r.traced}
		w.rec = recs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if paced {
				// Clients are staggered across one interval so that their
				// sends do not arrive as one burst.
				first := out.start + interval*time.Duration(i)/time.Duration(clients)
				runPaced(r.clk, w, first, interval, int(dur/interval), pacedMaxInflight)
			} else {
				runClosed(r.clk, w, r.sp.window, out.start+dur)
			}
			w.rec.end = r.clk.now()
		}()
	}
	wg.Wait()
	out.cpu = cpuTime() - cpu0
	for i, rec := range recs {
		out.wall = max(out.wall, rec.end-out.start)
		out.samples = append(out.samples, rec.samples...)
		out.late = append(out.late, rec.late...)
		out.attempted += rec.attempted
		out.failed += rec.failed
		out.harness += rec.harness
		if r.traced {
			out.traces = append(out.traces, clientTrace{client: i, phase: name, recs: rec.trace})
		}
	}
	return out
}

// closedRoundRobin runs a closed phase of length dur on each runner as
// consecutive segments of closedSegment, each drained and followed by a short
// idle gap, the runners taking the segments in turn so that results which
// are set against each other come from the same stretch of time. The
// segments are the closed phase's windows.
func closedRoundRobin(name string, dur time.Duration, runners ...*runner) []phaseOut {
	outs := make([]phaseOut, len(runners))
	n := max(int(dur/closedSegment), 1)
	for i := 0; i < n; i++ {
		for k, r := range runners {
			r.clk.sleepUntil(r.clk.now() + segmentGap)
			seg := r.phase(name, false, dur/time.Duration(n))
			seg.segKops = []float64{seg.kops()}
			seg.segP50 = []float64{float64(seg.p50())}
			outs[k].absorb(seg)
		}
	}
	return outs
}

func (r *runner) closed(name string, dur time.Duration) phaseOut {
	return closedRoundRobin(name, dur, r)[0]
}

// share is a fraction of a duration.
func share(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runWorkload runs sp once.
func runWorkload(sp spec, o runOpts) (result, error) {
	res := result{Workload: sp.name, Trace: o.trace, Seed: o.seed, Seconds: o.seconds, Clients: sizing(),
		Metrics: map[string]float64{}, Diag: map[string]float64{}}
	if err := checkHost(); err != nil {
		return res, err
	}
	// Whatever the previous workload left on the heap is returned first, so
	// that it is not charged to this one's rss_peak_mb.
	debug.FreeOSMemory()
	smp := startSampler()
	defer smp.stop()
	in := makeInputs(sp, o.seed)
	res.Diag["inputs_s"] = in.took.Seconds()
	if o.trace {
		return res, tracedRun(&res, sp, in, o, smp)
	}
	return res, endToEndRun(&res, sp, in, o, smp)
}

// endToEndRun builds the service loadInstances times, puts each instance
// through warm-up, a closed phase and a paced phase, and reports over all of
// them. Several instances, because a freshly built service draws how its
// shard goroutines and their partitions fall onto cores, keeps the draw until
// it is closed, and one draw in five or so runs a cache-resident workload a
// quarter slower: one instance per run would report the draw, not the
// program.
func endToEndRun(res *result, sp spec, in inputs, o runOpts, smp *sampler) error {
	var setups []float64
	var spent time.Duration
	timedBuild := func() (*env, error) {
		t0 := time.Now()
		e, err := build(sp, in, res.Clients)
		took := time.Since(t0)
		setups = append(setups, took.Seconds())
		spent += took
		return e, err
	}
	var closed, paced phaseOut
	var p99s []float64   // every paced window's p99, a diagnostic
	var groups []float64 // every shard's final group size, a diagnostic
	per := seconds(o.seconds / loadInstances)
	for inst := 0; inst < loadInstances && (inst == 0 || spent < setupBudget); inst++ {
		e, err := timedBuild()
		if err != nil {
			return err
		}
		r := newRunner(sp, e, in, o.seed, res.Clients, inst)
		r.phase("warmup", false, min(share(per, warmupShare), warmupMax))
		c := r.closed("closed", share(per, closedShare))
		p := r.phase("paced", true, share(per, pacedShare))
		for _, sh := range e.svc.Stats().Shards {
			groups = append(groups, float64(sh.Group))
		}
		e.close()
		debug.FreeOSMemory()

		closed.absorb(c)
		paced.absorb(p)
		p99s = append(p99s, p.windowP99s()...)
	}
	// A set-up of milliseconds is repeated, unloaded, until enough time has
	// gone into it for a steady median.
	for len(setups) < setupRepsMax && spent < setupEnough {
		e, err := timedBuild()
		if err != nil {
			return err
		}
		e.close()
		debug.FreeOSMemory()
	}
	smp.stop()
	res.count(closed, paced)

	m, d := res.Metrics, res.Diag
	slices.Sort(setups)
	m["setup_s"] = median(setups)
	m["tput_kops"] = closed.kops()
	m["closed_p50_us"] = us(closed.p50())
	cl, pl := sortedLatencies(closed.samples), sortedLatencies(paced.samples)
	m["paced_p50_us"] = us(quantile(pl, 0.50))
	m["cpu_ns_per_op"] = float64(paced.cpu.Nanoseconds()) / float64(max(paced.ok(), 1))
	m["rss_peak_mb"] = float64(smp.rssPeak) / (1 << 20)

	slices.Sort(groups)
	d["group_final"] = median(groups)
	d["setup_reps"] = float64(len(setups))
	d["closed_segments"] = float64(len(closed.segKops))
	d["closed_requests"] = float64(len(cl))
	d["closed_kops_raw"] = float64(closed.ok()) / closed.wall.Seconds() / 1000
	d["closed_p50_raw_us"] = us(quantile(cl, 0.50))
	d["closed_p99_us"] = us(quantile(cl, 0.99))
	d["paced_windows"] = float64(len(p99s))
	d["paced_requests"] = float64(len(pl))
	d["paced_kops"] = float64(paced.ok()) / paced.wall.Seconds() / 1000
	d["paced_p99_us"] = quiet(p99s, false) / 1e3
	d["paced_p99_raw_us"] = us(quantile(pl, 0.99))
	d["late_frac"], d["late_p99_us"] = lateness(paced)
	d["harness_frac"] = harnessFrac(res.Clients, closed, paced)
	return nil
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// lateness reports how far behind schedule the paced generator began its
// sends: the share more than one interval late, and the p99.
func lateness(paced phaseOut) (frac, p99us float64) {
	late := 0
	for _, l := range paced.late {
		if l > paced.interval {
			late++
		}
	}
	slices.Sort(paced.late)
	return float64(late) / float64(max(len(paced.late), 1)), us(quantile(paced.late, 0.99))
}

// harnessFrac is the share of the clients' wall time spent generating keys
// and verifying results: above a tenth, the run measures the harness.
func harnessFrac(clients int, phases ...phaseOut) float64 {
	var h, wall time.Duration
	for _, p := range phases {
		h += p.harness
		wall += p.wall
	}
	return float64(h) / float64(wall*time.Duration(clients))
}

// tracedRun is the per-layer half, on one service: a closed phase whose
// segments are untraced and traced in turn, then a traced paced phase, with
// counters read around them, then teardown and the single-layer probes.
func tracedRun(res *result, sp spec, in inputs, o runOpts, smp *sampler) error {
	m := res.Metrics
	for _, def := range perLayer {
		m[def.name] = 0
	}
	e, err := build(sp, in, res.Clients)
	if err != nil {
		return err
	}
	total := seconds(o.seconds)
	r := newRunner(sp, e, in, o.seed, res.Clients, 0)
	r.phase("warmup", false, min(share(total, tracedWarmup), warmupMax))

	// net_lookup's in-process baseline comes first: the same closed loop
	// straight into the same service, which is lookup_small's configuration
	// exactly, its segments alternating with segments over the wire.
	var wired, direct phaseOut
	if sp.net {
		inproc := sp
		inproc.net = false
		outs := closedRoundRobin("baseline", share(total, refShare), r, newRunner(inproc, e, in, o.seed, res.Clients, 1))
		wired, direct = outs[0], outs[1]
	}

	smp.watch(e.svc)
	var win serve.PerOpWindow
	e.svc.WindowPerOp(&win)
	st0 := e.svc.Stats()
	var rs0, rs1 client.Stats
	if e.rem != nil {
		rs0 = e.rem.Stats()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Untraced and traced closed segments alternate, so that their difference
	// is the tracing and not the minute they ran in; then the traced paced
	// phase. The counters are read around all three.
	tr := *r
	tr.traced = true
	outs := closedRoundRobin("closed", share(total, tracedClosedPart), r, &tr)
	ref, closed := outs[0], outs[1]
	paced := tr.phase("paced", true, share(total, tracedPacedPart))

	runtime.ReadMemStats(&ms1)
	st1 := e.svc.Stats()
	perOp := e.svc.WindowPerOp(&win)
	if e.rem != nil {
		rs1 = e.rem.Stats()
	}
	smp.watch(nil)

	e.close()
	smp.stop()

	res.count(wired, direct, ref, closed, paced)
	traces := append(closed.traces, paced.traces...)
	spans, err := writeTrace(o.outDir, sp.name, traces)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.Diag["trace_coverage"] = coverage(traces)
	res.Diag["reference_kops"] = ref.kops()
	res.Diag["traced_kops"] = closed.kops()

	// Spans around the admission and completion calls: their quantiles from
	// the paced phase, where they are the layer's time at the offered load
	// and not the depth of the closed loop's own queue.
	var submit, wait []time.Duration
	var gen time.Duration
	for _, ct := range traces {
		for _, t := range ct.recs {
			gen += t.subStart - t.genStart
			if t.intended >= 0 {
				submit = append(submit, t.subEnd-t.subStart)
				wait = append(wait, t.done-t.subEnd)
			}
		}
	}
	slices.Sort(submit)
	slices.Sort(wait)
	layer := "serve."
	if sp.net {
		layer = "client."
	} else {
		m["serve.submit_p99_us"] = us(quantile(submit, 0.99))
	}
	m[layer+"submit_p50_us"] = us(quantile(submit, 0.50))
	m[layer+"wait_p50_us"] = us(quantile(wait, 0.50))

	ops := float64(max(ref.ok()+closed.ok()+paced.ok(), 1))
	wall := ref.wall + closed.wall + paced.wall
	m["workload.gen_ns_per_key"] = float64(gen.Nanoseconds()) / float64(max(closed.attempted+paced.attempted, 1))
	m["workload.gen_frac"] = harnessFrac(res.Clients, closed, paced)
	m["workload.late_frac"], m["workload.late_p99_us"] = lateness(paced)
	m["workload.paced_p99_us"] = quiet(paced.windowP99s(), false) / 1e3
	m["trace.overhead_frac"] = 1 - closed.kops()/ref.kops()
	m["trace.spans"] = float64(spans)

	m["proc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	m["proc.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	m["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["proc.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["proc.goroutines_max"] = float64(smp.goroutines)

	serveMetrics(m, st0, st1, perOp, wall, smp)
	if sp.net {
		reqs := float64(len(ref.samples) + len(closed.samples) + len(paced.samples))
		m["client.bytes_out_per_key"] = float64(rs1.BytesOut-rs0.BytesOut) / ops
		m["client.bytes_in_per_key"] = float64(rs1.BytesIn-rs0.BytesIn) / ops
		m["client.frames_out_per_req"] = float64(rs1.FramesOut-rs0.FramesOut) / reqs
		m["client.frames_in_per_req"] = float64(rs1.FramesIn-rs0.FramesIn) / reqs
		m["client.shed"] = float64(rs1.Shed - rs0.Shed)
		m["wire.net_overhead_us"] = us(wired.p50() - direct.p50())
		m["wire.net_tput_ratio"] = wired.kops() / direct.kops()
		res.Diag["direct_kops"] = direct.kops()
	}

	// The probes run last, on a quiet process, and the ratios that set the
	// service against its standalone kernel follow from them.
	debug.FreeOSMemory()
	pr := prober{budget: o.probe, r: rng{s: streamSeed(o.seed, sp.name, -2)}, m: m}
	pr.coro()
	pr.native((1 << sp.dictLog2) / res.Clients)
	seqNS, bestNS := m["native.seq_ns_per_key"], min(m["native.coro_g6_ns_per_key"], m["native.coro_g16_ns_per_key"])
	if sp.kind == kindJoin {
		pr.join(in.build, in.expect, res.Clients)
		// A join's kernel item is a dictionary search piped into a probe.
		seqNS += m["nativejoin.seq_ns_per_probe"]
		bestNS += min(m["nativejoin.coro_g6_ns_per_probe"], m["nativejoin.coro_g16_ns_per_probe"])
	}
	pr.wire()
	pr.obs()
	if k := m["serve.kernel_ns_per_key"]; k > 0 {
		m["serve.mlp_achieved"] = seqNS / k
		m["serve.kernel_overhead"] = k / bestNS
	}
	return nil
}

// serveMetrics derives the serve layer's numbers from Stats() deltas over
// the traced phases, the service's own per-class latency histograms over
// the same window, and the sampled gauges.
func serveMetrics(m map[string]float64, a, b serve.Stats, perOp serve.OpLatencies, wall time.Duration, smp *sampler) {
	var busy time.Duration
	var items, batches uint64
	group := 0
	for i, sh := range b.Shards {
		was := a.Shards[i]
		busy += sh.Busy - was.Busy
		// ShardStats.Items adds applied writes to kernel items.
		items += (sh.Items - sh.Inserts - sh.Deletes) - (was.Items - was.Inserts - was.Deletes)
		batches += sh.Batches - was.Batches
		group += sh.Group
	}
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m["serve.kernel_ns_per_key"] = div(float64(busy.Nanoseconds()), float64(items))
	m["serve.kernel_busy_frac"] = div(float64(busy), float64(wall)*float64(len(b.Shards)))
	m["serve.avg_batch"] = div(float64(items), float64(batches))
	m["serve.group_final"] = div(float64(group), float64(len(b.Shards)))
	m["serve.lookup_p50_us"] = us(perOp.Lookup.P50)
	m["serve.join_p50_us"] = us(perOp.Join.P50)
	m["serve.write_p50_us"] = us(perOp.Write.P50)
	m["serve.join_hits_per_probe"] = div(float64(b.JoinHits-a.JoinHits), float64(b.Joins-a.Joins))
	writes := float64(b.Inserts - a.Inserts + b.Deletes - a.Deletes)
	m["serve.write_ns_per_op"] = div(float64((b.WriteBusy - a.WriteBusy).Nanoseconds()), writes)
	m["serve.rebuilds_per_s"] = div(float64(b.Rebuilds-a.Rebuilds), wall.Seconds())
	if b.Rebuilds > a.Rebuilds {
		m["serve.rebuild_pause_max_us"] = us(b.MaxRebuildPause)
	}
	m["serve.frozen_gens_max"] = float64(smp.frozenGens)
	m["serve.delta_len_max"] = float64(smp.deltaLen)
	m["serve.write_stalls"] = float64(b.WriteStalls - a.WriteStalls)
	m["serve.dropped"] = float64(b.Dropped - a.Dropped)
}
