package serve

import (
	"context"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

// testDomain builds a domain of n values spaced step apart, so keys not
// divisible by step are verifiably absent.
func testDomain(n int, step uint64) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i) * step
	}
	return vals
}

// TestServiceCorrectUnderConcurrency is the service-level acceptance
// check: under concurrent submission from many goroutines, every
// submitted key receives its correct result.
func TestServiceCorrectUnderConcurrency(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		const (
			domainN = 4000
			step    = 3
			workers = 8
			perW    = 400
		)
		vals := testDomain(domainN, step)
		cfg := DefaultConfig()
		cfg.Shards = 4
		cfg.MaxBatch = 64
		s, err := New(vals, WithConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var wg sync.WaitGroup
		futs := make([][]*Future, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(w), 99))
				for i := 0; i < perW; i++ {
					// Mix of present keys, absent in-range keys, and
					// out-of-range keys.
					key := rng.Uint64N(domainN*step + 100)
					futs[w] = append(futs[w], s.Go(ctx, key))
				}
			}(w)
		}
		wg.Wait()
		for w := range futs {
			for _, f := range futs[w] {
				r := f.Wait()
				key := f.Key()
				wantFound := key%step == 0 && key/step < domainN
				if r.Found != wantFound {
					t.Fatalf("key %d: found=%v, want %v", key, r.Found, wantFound)
				}
				if wantFound && uint64(r.Code) != key/step {
					t.Fatalf("key %d: code=%d, want %d", key, r.Code, key/step)
				}
				if !wantFound && r.Code != NotFound {
					t.Fatalf("key %d: absent key code=%d, want NotFound", key, r.Code)
				}
			}
		}
		s.Close()
		st := s.Stats()
		if st.Items != workers*perW {
			t.Fatalf("stats items=%d, want %d", st.Items, workers*perW)
		}
		if st.Dropped != 0 {
			t.Fatalf("stats dropped=%d with no cancellations", st.Dropped)
		}
		perShard := map[int]uint64{}
		for _, ss := range st.Shards {
			perShard[ss.Shard] = ss.Items
		}
		// Every request must have been drained by the shard its key
		// hashes to.
		want := map[int]uint64{}
		for w := range futs {
			for _, f := range futs[w] {
				want[shardOf(f.Key(), cfg.Shards)]++
			}
		}
		for i := 0; i < cfg.Shards; i++ {
			if perShard[i] != want[i] {
				t.Fatalf("shard %d drained %d items, want %d", i, perShard[i], want[i])
			}
		}
	})
}

// TestServiceTinyDomainEmptyShards: with fewer values than shards some
// shards own nothing; lookups must still resolve correctly everywhere.
func TestServiceTinyDomainEmptyShards(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		s, err := New([]uint64{10, 20}, WithShards(8))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for key, want := range map[uint64]Result{
			10: {Code: 0, Found: true},
			20: {Code: 1, Found: true},
			15: {Code: NotFound},
			0:  {Code: NotFound},
		} {
			if got := s.Lookup(context.Background(), key); got != want {
				t.Fatalf("lookup(%d) = %+v, want %+v", key, got, want)
			}
		}
	})
}

func TestServiceDedupAndUnsortedDomain(t *testing.T) {
	s, err := New([]uint64{30, 10, 20, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for key, code := range map[uint64]uint32{10: 0, 20: 1, 30: 2} {
		if got := s.Lookup(context.Background(), key); !got.Found || got.Code != code {
			t.Fatalf("lookup(%d) = %+v, want code %d", key, got, code)
		}
	}
}

// TestNewDomainShapes: New's partition takes a strictly increasing input
// as it is (no copy, no sort) and sends everything else — unsorted,
// duplicate-carrying, both — through sort + Compact; either way the codes
// are positions in the sorted duplicate-free domain, the caller's slice is
// left as it was, every shard's columns are allocated at their exact size,
// and a build side larger than one resolution chunk, with keys outside the
// domain, joins on exactly the tuples inside it. An empty domain with a
// non-empty build side builds (and matches nothing).
func TestNewDomainShapes(t *testing.T) {
	const n = 5000
	domain := make([]uint64, n) // 3·i: the sorted duplicate-free domain
	for i := range domain {
		domain[i] = uint64(3 * i)
	}
	reversed := slices.Clone(domain)
	slices.Reverse(reversed)
	withDups := append(slices.Clone(domain), domain[n/2:]...)
	slices.Sort(withDups)
	shuffledDups := append(slices.Clone(reversed), domain[:n/3]...)
	var build []BuildTuple
	want := make(map[uint64]JoinResult)
	for i := 0; i < 3*n; i++ { // even keys below 4n, each drawn at least once: the multiples of 6 below 3n are in the domain
		k := uint64(i % (2 * n) * 2)
		build = append(build, BuildTuple{Key: k, Payload: uint32(i)})
		if k%3 == 0 && k/3 < n {
			r := want[k]
			r.Hits++
			r.Agg += uint64(i)
			want[k] = r
		}
	}
	for name, in := range map[string][]uint64{
		"sorted": domain, "unsorted": reversed, "duplicates": withDups, "unsorted+duplicates": shuffledDups, "empty": nil,
	} {
		t.Run(name, func(t *testing.T) {
			before := slices.Clone(in)
			s, err := New(in, WithShards(3), WithBuild(build))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !slices.Equal(in, before) {
				t.Fatal("New modified the caller's values")
			}
			total := 0
			for _, sh := range s.shards {
				ep := sh.epoch.Load()
				if cap(ep.idx.table) != len(ep.idx.table) || cap(ep.idx.codes) != len(ep.idx.codes) {
					t.Fatalf("shard %d columns: len %d cap %d / len %d cap %d, want exact capacity",
						sh.id, len(ep.idx.table), cap(ep.idx.table), len(ep.idx.codes), cap(ep.idx.codes))
				}
				total += len(ep.idx.table)
			}
			if in == nil {
				if r := s.Join(context.Background(), 0); r != (JoinResult{Code: NotFound}) || total != 0 {
					t.Fatalf("empty domain: join(0) = %+v, %d keys partitioned", r, total)
				}
				return
			}
			if total != n {
				t.Fatalf("partitioned %d keys, want %d", total, n)
			}
			keys := make([]uint64, 0, 2*n)
			for i := 0; i < n; i++ {
				keys = append(keys, uint64(3*i), uint64(3*i+1))
			}
			bf := s.JoinBatch(context.Background(), keys)
			for i, r := range bf.WaitJoin() {
				k := bf.Keys()[i]
				w := want[k]
				w.Code = NotFound
				if k%3 == 0 {
					w.Code = uint32(k / 3)
				}
				if r != w {
					t.Fatalf("join(%d) = %+v, want %+v", k, r, w)
				}
			}
		})
	}
}

// TestServiceCloseIdempotent is the regression test for repeated and
// concurrent Close calls: every call must return (after the shutdown
// finishes) without panicking, and futures submitted before the first
// Close must still complete.
func TestServiceCloseIdempotent(t *testing.T) {
	s, err := New(testDomain(64, 1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Go(context.Background(), 7)
	s.Close()
	s.Close() // second sequential Close: must be a no-op
	if r := f.Wait(); !r.Found || r.Code != 7 {
		t.Fatalf("future after double Close = %+v", r)
	}

	s2, err := New(testDomain(8, 1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2.Close() // concurrent Closes: all must return, none panic
		}()
	}
	wg.Wait()
	s2.Close()
}

// TestJoinServiceCorrectUnderConcurrency is the join acceptance check:
// concurrent mixed lookup/join submission, every join probe aggregates
// exactly its key's build tuples (skewed multiplicities), and the join
// metrics add up.
func TestJoinServiceCorrectUnderConcurrency(t *testing.T) {
	const (
		domainN = 3000
		step    = 3
		workers = 8
		perW    = 300
	)
	vals := testDomain(domainN, step)
	// Build side: key i*step appears i%7 times with payloads i, i+1, ...
	// (multiplicities 0..6 — empty chains included); plus tuples outside
	// the domain, which must be dropped.
	var build []BuildTuple
	wantHits := make(map[uint64]uint32)
	wantAgg := make(map[uint64]uint64)
	for i := 0; i < domainN; i++ {
		key := uint64(i) * step
		for j := 0; j < i%7; j++ {
			build = append(build, BuildTuple{Key: key, Payload: uint32(i + j)})
			wantHits[key]++
			wantAgg[key] += uint64(i + j)
		}
	}
	build = append(build, BuildTuple{Key: domainN*step + 1, Payload: 9}) // not in domain
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.MaxBatch = 64
	s, err := New(vals, WithConfig(cfg), WithBuild(build))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	joinFuts := make([][]*Future, workers)
	lookFuts := make([][]*Future, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 42))
			for i := 0; i < perW; i++ {
				key := rng.Uint64N(domainN*step + 50)
				joinFuts[w] = append(joinFuts[w], s.GoJoin(ctx, key))
				// A join service still answers plain lookups in the same
				// batches.
				lookFuts[w] = append(lookFuts[w], s.Go(ctx, key))
			}
		}(w)
	}
	wg.Wait()
	var wantJoinHits uint64
	for w := range joinFuts {
		for _, f := range joinFuts[w] {
			r := f.WaitJoin()
			key := f.Key()
			inDomain := key%step == 0 && key/step < domainN
			if !inDomain {
				if r.Code != NotFound || r.Hits != 0 {
					t.Fatalf("join(%d) out of domain = %+v", key, r)
				}
				continue
			}
			if uint64(r.Code) != key/step {
				t.Fatalf("join(%d) code = %d, want %d", key, r.Code, key/step)
			}
			if r.Hits != wantHits[key] || r.Agg != wantAgg[key] {
				t.Fatalf("join(%d) = %+v, want hits %d agg %d", key, r, wantHits[key], wantAgg[key])
			}
			wantJoinHits += uint64(r.Hits)
		}
		for _, f := range lookFuts[w] {
			r := f.Wait()
			key := f.Key()
			wantFound := key%step == 0 && key/step < domainN
			if r.Found != wantFound || (wantFound && uint64(r.Code) != key/step) {
				t.Fatalf("lookup(%d) on join service = %+v", key, r)
			}
		}
	}
	s.Close()
	st := s.Stats()
	if st.Items != 2*workers*perW {
		t.Fatalf("stats items = %d, want %d", st.Items, 2*workers*perW)
	}
	if st.Joins != workers*perW {
		t.Fatalf("stats joins = %d, want %d", st.Joins, workers*perW)
	}
	if st.JoinHits != wantJoinHits {
		t.Fatalf("stats join hits = %d, want %d", st.JoinHits, wantJoinHits)
	}
}

// TestJoinServiceTinyDomain exercises empty shard partitions (both
// dictionary and build side) on a join service.
func TestJoinServiceTinyDomain(t *testing.T) {
	s, err := New([]uint64{10, 20, 30},
		WithShards(8),
		WithBuild([]BuildTuple{{Key: 10, Payload: 1}, {Key: 10, Payload: 2}, {Key: 30, Payload: 7}}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for key, want := range map[uint64]JoinResult{
		10: {Code: 0, Hits: 2, Agg: 3},
		20: {Code: 1},
		30: {Code: 2, Hits: 1, Agg: 7},
		15: {Code: NotFound},
	} {
		if got := s.Join(ctx, key); got != want {
			t.Fatalf("join(%d) = %+v, want %+v", key, got, want)
		}
	}
	if got := s.Lookup(ctx, 20); !got.Found || got.Code != 1 {
		t.Fatalf("lookup(20) = %+v", got)
	}
}

func TestJoinServiceEmptyBuild(t *testing.T) {
	s, err := New(testDomain(100, 1), WithBuild(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if r := s.Join(context.Background(), 5); r.Code != 5 || r.Found() || r.Hits != 0 {
		t.Fatalf("join on empty build side = %+v", r)
	}
}

func TestGoJoinOnLookupServicePanics(t *testing.T) {
	s, err := New(testDomain(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("GoJoin on a lookup-only service did not panic")
		}
	}()
	s.GoJoin(context.Background(), 1)
}

// TestJoinServiceAdaptiveControllerRuns drives the adaptive controller
// over the join drain (probe chains, not binary search, dominate) and
// checks it records in-bounds epochs.
func TestJoinServiceAdaptiveControllerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("join controller soak is slow")
	}
	const domainN = 1 << 14
	vals := testDomain(domainN, 1)
	rng := rand.New(rand.NewPCG(5, 6))
	build := make([]BuildTuple, 1<<16)
	for i := range build {
		build[i] = BuildTuple{Key: rng.Uint64N(domainN), Payload: uint32(i)}
	}
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.MaxBatch = 128
	cfg.AdaptEvery = 2
	s, err := New(vals, WithConfig(cfg), WithBuild(build))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var futs []*Future
	for i := 0; i < 20000; i++ {
		futs = append(futs, s.GoJoin(ctx, rng.Uint64N(domainN+100)))
	}
	for _, f := range futs {
		f.WaitJoin()
	}
	s.Close()
	for _, ss := range s.Stats().Shards {
		if len(ss.GroupHistory) == 0 {
			t.Fatalf("shard %d: no controller epochs (batches=%d)", ss.Shard, ss.Batches)
		}
		for _, g := range ss.GroupHistory {
			if g < cfg.MinGroup || g > cfg.MaxGroup {
				t.Fatalf("shard %d: group %d escaped [%d,%d]", ss.Shard, g, cfg.MinGroup, cfg.MaxGroup)
			}
		}
		if ss.Joins == 0 {
			t.Fatalf("shard %d drained no joins", ss.Shard)
		}
	}
}

// TestServiceSubmitAfterCloseErrClosed pins the shutdown contract: point
// submissions after (or racing) Close are refused with ErrClosed and a
// Dropped result instead of panicking — a producer draining live
// traffic at shutdown must get an error, not a crash.
func TestServiceSubmitAfterCloseErrClosed(t *testing.T) {
	s, err := New(testDomain(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	f := s.Go(context.Background(), 1)
	if got := f.Err(); got != ErrClosed {
		t.Fatalf("Go after Close: Err() = %v, want ErrClosed", got)
	}
	if r := f.Wait(); !r.Dropped {
		t.Fatalf("Go after Close: result %+v, want Dropped", r)
	}
	if f := s.Insert(context.Background(), 5, 1); f.Err() != ErrClosed {
		t.Fatal("Insert after Close did not report ErrClosed")
	}
	if f := s.Delete(context.Background(), 5); f.Err() != ErrClosed {
		t.Fatal("Delete after Close did not report ErrClosed")
	}
	if bf := s.GoBatch(context.Background(), []uint64{1, 2}); bf.Err() != ErrClosed || bf.Wait() != nil {
		t.Fatal("GoBatch after Close did not report ErrClosed with nil results")
	}
	if bf := s.ApplyBatch(context.Background(), []Op{{Kind: OpInsert, Key: 1, Val: 2}}); bf.Err() != ErrClosed {
		t.Fatal("ApplyBatch after Close did not report ErrClosed")
	}
	if rf := s.Range(context.Background(), 0, 9, 0); rf.Err() != ErrClosed || !rf.Dropped() {
		t.Fatal("Range after Close did not report ErrClosed")
	}
}

func TestSubmitUnknownOpKindPanics(t *testing.T) {
	s, err := New(testDomain(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit of an unknown op kind did not panic")
		}
	}()
	s.Submit(context.Background(), Op{Kind: nOpKinds + 3, Key: 1})
}

// TestControllerConvergesOnConvexCost drives the hill climber against a
// synthetic convex cost surface with optimum at group 6 and checks it
// settles in a tight band around it.
func TestControllerConvergesOnConvexCost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Group = 20
	cfg.MinGroup = 1
	cfg.MaxGroup = 32
	cfg.AdaptEvery = 1
	c := newController(cfg)
	cost := func(g int) float64 { d := float64(g - 6); return d*d + 50 }
	for i := 0; i < 120; i++ {
		c.observe(10, time.Duration(10*cost(c.Group())))
	}
	hist := c.History()
	if len(hist) == 0 {
		t.Fatal("controller recorded no epochs")
	}
	tail := hist[len(hist)-10:]
	lo, hi := tail[0], tail[0]
	for _, g := range tail {
		lo, hi = min(lo, g), max(hi, g)
	}
	if lo < 4 || hi > 8 {
		t.Fatalf("controller tail %v not settled near optimum 6 (history %v)", tail, hist)
	}
	if hi-lo > 2 {
		t.Fatalf("controller still oscillating widely: tail %v", tail)
	}
}

func TestControllerRespectsBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Group = 2
	cfg.MinGroup = 2
	cfg.MaxGroup = 3
	cfg.AdaptEvery = 1
	c := newController(cfg)
	for i := 0; i < 50; i++ {
		c.observe(1, time.Duration(1+i%7))
		if g := c.Group(); g < 2 || g > 3 {
			t.Fatalf("group %d escaped [2,3]", g)
		}
	}
}

func TestControllerDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = false
	cfg.Group = 9
	c := newController(cfg)
	for i := 0; i < 30; i++ {
		c.observe(5, time.Duration(100-i))
	}
	if c.Group() != 9 || len(c.History()) != 0 {
		t.Fatalf("disabled controller moved: group=%d hist=%v", c.Group(), c.History())
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h quantileTestHist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := h.quantile(c.q)
		// Log-bucketed with midpoint answers: the error is bounded by half
		// a sub-bucket (±6.25%) either side of the true quantile.
		lo, hi := c.want-c.want/8, c.want+c.want/8
		if got < lo || got > hi {
			t.Fatalf("q%.2f = %v, want within [%v, %v]", c.q, got, lo, hi)
		}
	}
}

func TestHistBucketMonotoneInvertible(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<20; v += 97 {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket(%d)=%d below previous %d", v, b, prev)
		}
		prev = b
		if f := bucketFloor(b); f > v {
			t.Fatalf("bucketFloor(%d)=%d exceeds value %d", b, f, v)
		}
	}
}

// TestServiceAdaptiveControllerRuns exercises the adaptive path
// end-to-end and checks the controller stayed in bounds and recorded
// epochs.
func TestServiceAdaptiveControllerRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.MaxBatch = 128
	cfg.AdaptEvery = 2
	s, err := New(testDomain(1<<16, 1), WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var futs []*Future
	for i := 0; i < 20000; i++ {
		futs = append(futs, s.Go(ctx, uint64(i%(1<<17))))
	}
	for _, f := range futs {
		f.Wait()
	}
	s.Close()
	for _, ss := range s.Stats().Shards {
		if len(ss.GroupHistory) == 0 {
			t.Fatalf("shard %d: adaptive controller recorded no epochs (batches=%d)", ss.Shard, ss.Batches)
		}
		for _, g := range ss.GroupHistory {
			if g < cfg.MinGroup || g > cfg.MaxGroup {
				t.Fatalf("shard %d: group %d escaped [%d,%d]", ss.Shard, g, cfg.MinGroup, cfg.MaxGroup)
			}
		}
	}
}
