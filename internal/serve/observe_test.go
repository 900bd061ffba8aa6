package serve

import (
	"context"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestObserverEndToEnd drives every request class through an observed
// service and checks the tentpole wiring end to end: shard metrics
// registered live into the registry, per-op latency populations
// separated in Stats, lifecycle spans stamped through the admit and
// shard rings (admit → enqueue → drain-start → kernel-done → complete),
// epoch merge/install spans once writes cross the rebuild threshold,
// and controller decisions recorded per hill-climb epoch.
func TestObserverEndToEnd(t *testing.T) {
	o := obs.New()
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.AdaptEvery = 1
	cfg.RebuildThreshold = 8
	s, err := New(testDomain(1<<10, 1), WithConfig(cfg), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	if s.Observer() != o {
		t.Fatal("Observer() did not return the attached observer")
	}
	ctx := context.Background()

	// Lookups: vectorized (stamps admit/enqueue/drain/kernel/complete)
	// and point (through the group-commit batcher).
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i * 5)
	}
	s.GoBatch(ctx, keys).Wait()
	s.Lookup(ctx, 42)

	// Ranges and writes (enough writes to force background merges and
	// installs on both shards).
	s.Range(ctx, 10, 200, 0).Wait()
	for i := 0; i < 64; i++ {
		s.Insert(ctx, uint64(1<<20+i), uint32(i)).Wait()
	}
	s.Delete(ctx, 25).Wait()

	awaitRebuild(t, s)
	st := s.Stats()
	s.Close()

	// Per-op latency populations: each exercised class has a count and a
	// positive quantile; the blended quantiles cover all of them.
	if st.PerOp.Lookup.Count == 0 || st.PerOp.Range.Count == 0 || st.PerOp.Write.Count == 0 {
		t.Fatalf("per-op counts missing a class: %+v", st.PerOp)
	}
	if st.PerOp.Lookup.P50 <= 0 || st.PerOp.Write.P99 <= 0 {
		t.Fatalf("per-op quantiles not positive: %+v", st.PerOp)
	}
	total := st.PerOp.Lookup.Count + st.PerOp.Join.Count + st.PerOp.Range.Count + st.PerOp.Write.Count
	var shardTotal uint64
	for _, ss := range st.Shards {
		shardTotal += ss.PerOp.Lookup.Count + ss.PerOp.Join.Count + ss.PerOp.Range.Count + ss.PerOp.Write.Count
	}
	if total != shardTotal {
		t.Fatalf("service per-op total %d != shard sum %d", total, shardTotal)
	}

	// Registry: the shard metrics are adopted live under labeled names.
	snap := o.Registry().Snapshot()
	var items uint64
	for _, shardID := range []string{"0", "1"} {
		v, ok := snap[obs.Name("serve_items", "shard", shardID)].(uint64)
		if !ok {
			t.Fatalf("serve_items{shard=%s} missing from registry snapshot", shardID)
		}
		items += v
	}
	if items == 0 {
		t.Fatal("registered serve_items counters read zero")
	}
	if _, ok := snap[obs.Name("serve_latency_ns", "shard", "0", "op", "lookup")].(obs.HistSnapshot); !ok {
		t.Fatal("per-op latency histogram not registered")
	}

	// Spans: the admit ring saw every vectorized/point/range admission;
	// each shard ring's lifecycle is ordered per batch id.
	full := o.Snapshot()
	if len(full.Spans["admit"]) == 0 {
		t.Fatal("no admission spans recorded")
	}
	sawEpoch := false
	for _, name := range []string{"shard0", "shard1"} {
		spans := full.Spans[name]
		if len(spans) == 0 {
			t.Fatalf("ring %s empty", name)
		}
		kinds := make(map[obs.SpanKind]int)
		lastStart := make(map[uint64]int64)
		for _, sp := range spans {
			kinds[sp.Kind]++
			switch sp.Kind {
			case obs.SpanDrainStart:
				lastStart[sp.Batch] = sp.T
			case obs.SpanKernelDone, obs.SpanComplete:
				if t0, ok := lastStart[sp.Batch]; ok && sp.T < t0 {
					t.Fatalf("ring %s: %v of batch %d precedes its drain-start", name, sp.Kind, sp.Batch)
				}
			case obs.SpanMergeStart, obs.SpanMergeDone, obs.SpanInstall:
				sawEpoch = true
			}
		}
		for _, k := range []obs.SpanKind{obs.SpanEnqueue, obs.SpanDrainStart, obs.SpanKernelDone, obs.SpanComplete} {
			if kinds[k] == 0 {
				t.Fatalf("ring %s recorded no %v spans (kinds: %v)", name, k, kinds)
			}
		}
	}
	if !sawEpoch {
		t.Fatal("no epoch merge/install spans despite an installed rebuild")
	}

	// Decisions: AdaptEvery=1 means every kernel batch ends an epoch.
	decs := full.Decisions["ctl0"]
	if len(decs) == 0 {
		t.Fatal("no controller decisions recorded")
	}
	for _, d := range decs {
		if d.Cost <= 0 || d.Items <= 0 {
			t.Fatalf("decision without cost evidence: %+v", d)
		}
		if d.To < cfg.MinGroup || d.To > cfg.MaxGroup {
			t.Fatalf("decision walked out of bounds: %+v", d)
		}
	}

	if err := o.WriteJSON(io.Discard); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
}

// TestControllerDecisionLog feeds the hill climber a deterministic cost
// sequence and asserts the recorded decisions match the moves: epochs
// are sequential, From/To chain, Cost is exactly the per-item cost the
// epoch observed, and Reversed fires exactly when the cost worsened.
func TestControllerDecisionLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = true
	cfg.MinGroup = 1
	cfg.MaxGroup = 8
	cfg.Group = 4
	cfg.AdaptEvery = 1
	c := newController(cfg)
	dlog := obs.NewDecisionLog(64)
	c.dlog = dlog

	costs := []float64{10, 8, 6, 9, 7, 12, 11} // improve, improve, worsen, improve, worsen, improve
	const itemsPer = 4
	for _, cost := range costs {
		c.observe(itemsPer, cost*itemsPer)
	}
	decs := dlog.Snapshot(nil)
	if len(decs) != len(costs) {
		t.Fatalf("recorded %d decisions, want %d", len(decs), len(costs))
	}
	prevTo := 4
	var prevCost float64
	for i, d := range decs {
		if d.Epoch != uint64(i+1) {
			t.Fatalf("decision %d: epoch %d, want %d", i, d.Epoch, i+1)
		}
		if d.From != prevTo {
			t.Fatalf("decision %d: From %d does not chain from previous To %d", i, d.From, prevTo)
		}
		if d.Items != itemsPer {
			t.Fatalf("decision %d: items %d, want %d", i, d.Items, itemsPer)
		}
		if math.Abs(d.Cost-costs[i]) > 1e-9 {
			t.Fatalf("decision %d: cost %v, want %v", i, d.Cost, costs[i])
		}
		if math.Abs(d.PrevCost-prevCost) > 1e-9 {
			t.Fatalf("decision %d: prev cost %v, want %v", i, d.PrevCost, prevCost)
		}
		wantReversed := prevCost > 0 && costs[i] > prevCost
		if d.Reversed != wantReversed {
			t.Fatalf("decision %d: reversed=%v, want %v (cost %v after %v)", i, d.Reversed, wantReversed, costs[i], prevCost)
		}
		step := d.To - d.From
		if step < -1 || step > 1 {
			t.Fatalf("decision %d: walked %d steps", i, step)
		}
		prevTo = d.To
		prevCost = costs[i]
	}
	// The recorded trajectory is exactly the controller's group history.
	hist := c.History()
	if len(hist) != len(decs) {
		t.Fatalf("history len %d != decisions %d", len(hist), len(decs))
	}
	for i, g := range hist {
		if decs[i].To != g {
			t.Fatalf("decision %d To=%d, history %d", i, decs[i].To, g)
		}
	}
}

// TestObserverConcurrentSnapshots is the serve half of the race
// satellite: live shard goroutines recording metrics and spans while
// readers snapshot the observer and Stats concurrently. Run under -race
// by the CI race job; correctness here is no race and monotone ring
// sequences.
func TestObserverConcurrentSnapshots(t *testing.T) {
	o := obs.New(obs.WithSpanCapacity(256))
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.AdaptEvery = 1
	cfg.RebuildThreshold = 16
	s, err := New(testDomain(1<<10, 1), WithConfig(cfg), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := o.Snapshot()
				for name, spans := range snap.Spans {
					for i := 1; i < len(spans); i++ {
						if spans[i].Seq != spans[i-1].Seq+1 {
							t.Errorf("ring %s: torn snapshot", name)
							return
						}
					}
				}
				_ = s.Stats()
			}
		}()
	}

	keys := make([]uint64, 128)
	for i := range keys {
		keys[i] = uint64(i * 3)
	}
	for iter := 0; iter < 50; iter++ {
		s.GoBatch(ctx, keys).Wait()
		s.Range(ctx, 0, 100, 0).Wait()
		s.Insert(ctx, uint64(1<<19+iter), uint32(iter)).Wait()
		s.Lookup(ctx, uint64(iter))
	}
	close(stop)
	wg.Wait()
	s.Close()

	if o.Ring("shard0").Recorded() == 0 && o.Ring("shard1").Recorded() == 0 {
		t.Fatal("no spans recorded by live shards")
	}
}

// TestGoBatchAllocsO1Observed repeats the O(1)-allocation admission
// check with observation ENABLED: span recording is a struct copy into
// pre-sized rings, metric updates are atomics, and the pprof label
// contexts are precomputed, so the observed batch path must stay
// allocation-flat too (the issue's acceptance gate).
func TestGoBatchAllocsO1Observed(t *testing.T) {
	o := obs.New()
	s, err := New(testDomain(1<<12, 1), WithShards(4), WithAdaptive(false, 0), WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	warm := make([]uint64, 1<<12)
	for i := range warm {
		warm[i] = uint64(i)
	}
	s.GoBatch(ctx, warm).Wait()

	allocsAt := func(n int) float64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i * 3)
		}
		return testing.AllocsPerRun(50, func() {
			s.GoBatch(ctx, keys).Wait()
		})
	}
	small, large := allocsAt(64), allocsAt(1<<12)
	const bound = 12 // same bound as the unobserved test: observation adds zero allocations
	if small > bound || large > bound {
		t.Fatalf("observed GoBatch allocations not O(1): %v at n=64, %v at n=4096 (bound %d)", small, large, bound)
	}
	if large > small+2 {
		t.Fatalf("observed GoBatch allocations grow with batch size: %v at n=64 vs %v at n=4096", small, large)
	}
}

// TestAttachObserverNilObserver pins the nil-guard the obsgate analyzer
// surfaced: attachObserver used to dereference the observer
// unconditionally (o.Registry(), o.Ring(), o.DecisionLog()) and relied
// on every caller pre-checking. The method is now nil-safe itself — a
// nil observer must leave the shard unobserved instead of panicking.
func TestAttachObserverNilObserver(t *testing.T) {
	sh := &shard{id: 3}
	sh.attachObserver(nil, "native")
	if sh.ring != nil {
		t.Fatalf("nil observer attached a span ring: %v", sh.ring)
	}
	if sh.baseCtx != nil {
		t.Fatalf("nil observer attached pprof label context: %v", sh.baseCtx)
	}
}

// TestRegisterNilRegistry pins the companion guard in
// shardMetrics.register: a nil registry is a no-op, not a panic.
func TestRegisterNilRegistry(t *testing.T) {
	m := &shardMetrics{}
	m.register(nil, 0)
}
