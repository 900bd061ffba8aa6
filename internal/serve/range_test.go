package serve

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/native"
)

// sortedRange is the oracle for one range query: the map's entries with
// lo ≤ key ≤ hi in ascending key order, truncated at limit when
// limit > 0.
func sortedRange(m map[uint64]uint32, lo, hi uint64, limit int) []RangeEntry {
	var out []RangeEntry
	for k, v := range m {
		if k >= lo && k <= hi {
			out = append(out, RangeEntry{Key: k, Code: v})
		}
	}
	slices.SortFunc(out, func(a, b RangeEntry) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TestMergeRangeVsOracle drives the shard-side k-way merge (newer delta
// part over older part over snapshot, tombstones masking, limit
// truncation) against a map oracle over randomized states.
func TestMergeRangeVsOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	const keySpace = 64
	for iter := 0; iter < 300; iter++ {
		// Random snapshot: sorted distinct keys with codes.
		m := make(map[uint64]uint32)
		var snapAll []native.Pair
		for k := uint64(0); k < keySpace; k++ {
			if rng.Uint64N(3) == 0 {
				c := rng.Uint32N(1000)
				snapAll = append(snapAll, native.Pair{Key: k, Code: c})
				m[k] = c
			}
		}
		// Random frozen then live deltas, applied to the oracle in age
		// order (frozen first, live shadows it).
		mkDelta := func() []writeEntry {
			var d []writeEntry
			for k := uint64(0); k < keySpace; k++ {
				switch rng.Uint64N(6) {
				case 0:
					v := rng.Uint32N(1000)
					d = applyWriteEntry(d, k, v, false, 0)
				case 1:
					d = applyWriteEntry(d, k, 0, true, 0)
				}
			}
			return d
		}
		frozen, live := mkDelta(), mkDelta()
		for _, e := range frozen {
			if e.del {
				delete(m, e.key)
			} else {
				m[e.key] = e.val
			}
		}
		for _, e := range live {
			if e.del {
				delete(m, e.key)
			} else {
				m[e.key] = e.val
			}
		}
		lo := rng.Uint64N(keySpace)
		hi := lo + rng.Uint64N(keySpace-lo)
		limit := 0
		if rng.Uint64N(2) == 0 {
			limit = 1 + int(rng.Uint64N(6))
		}
		// The kernel hands mergeRange only the in-range snapshot pairs.
		var snap []native.Pair
		for _, p := range snapAll {
			if p.Key >= lo && p.Key <= hi {
				snap = append(snap, p)
			}
		}
		got := mergeRange(deltaView{parts: [][]writeEntry{live, frozen}}, snap, lo, hi, limit, nil)
		want := sortedRange(m, lo, hi, limit)
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d [%d,%d] limit %d:\n got %v\nwant %v\nlive %v\nfrozen %v\nsnap %v",
				iter, lo, hi, limit, got, want, live, frozen, snap)
		}
	}
}

// TestRangeAcrossBackendsVsOracle runs ranges end to end — through
// admission, the fan-out, the scan kernel, the delta merge, and the
// k-way result merge — against a map oracle, with interleaved writes
// forcing epoch churn (tiny rebuild threshold) so ranges see live
// deltas, frozen deltas, and merged snapshots.
func TestRangeAcrossBackendsVsOracle(t *testing.T) {
	const keySpace = 200
	domain := testDomain(60, 3) // every third key in [0, 180)
	iters := 150
	if testing.Short() {
		iters = 60
	}
	s, err := New(domain, WithShards(3), WithRebuildThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(9, 0))
	m := make(map[uint64]uint32, len(domain))
	for code, v := range domain {
		m[v] = uint32(code)
	}
	for i := 0; i < iters; i++ {
		// A couple of writes per iteration keeps the deltas busy.
		for w := 0; w < 2; w++ {
			k := rng.Uint64N(keySpace)
			if rng.Uint64N(3) == 0 {
				s.Delete(ctx, k).Wait()
				delete(m, k)
			} else {
				v := rng.Uint32N(1 << 20)
				s.Insert(ctx, k, v).Wait()
				m[k] = v
			}
		}
		lo := rng.Uint64N(keySpace)
		hi := lo + rng.Uint64N(keySpace-lo)
		limit := 0
		if rng.Uint64N(3) == 0 {
			limit = 1 + int(rng.Uint64N(10))
		}
		got := s.Range(ctx, lo, hi, limit).Collect(0)
		want := sortedRange(m, lo, hi, limit)
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d: range [%d,%d] limit %d = %v, oracle %v",
				i, lo, hi, limit, got, want)
		}
	}
	// Full-domain sweep: one ordered pass over everything.
	got := s.Range(ctx, 0, ^uint64(0), 0).Collect(0)
	want := sortedRange(m, 0, ^uint64(0), 0)
	if !slices.Equal(got, want) {
		t.Fatalf("full sweep diverged: %d entries vs oracle %d", len(got), len(want))
	}
	s.Close()
	st := s.Stats()
	if st.Rebuilds == 0 {
		t.Fatal("range replay forced no epoch rebuilds")
	}
	if st.Ranges == 0 || st.RangeEntries == 0 {
		t.Fatalf("range metrics not recorded: %+v", st)
	}
}

// TestRangeBatchStreaming covers the RangeFuture surface: a multi-range
// batch, lazy k-way merged streaming (repeatable, early-break safe),
// and per-range limits.
func TestRangeBatchStreaming(t *testing.T) {
	domain := testDomain(100, 2) // 0,2,...,198; code of 2i is i
	s, err := New(domain, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	rf := s.RangeBatch(ctx, []Op{
		RangeOp(10, 30, 0),
		RangeOp(0, 198, 7),
		RangeOp(199, 300, 0), // beyond the domain: empty
	})
	rf.Wait()
	if rf.Err() != nil || rf.Dropped() {
		t.Fatalf("clean batch reported err=%v dropped=%v", rf.Err(), rf.Dropped())
	}
	want0 := []RangeEntry{{10, 5}, {12, 6}, {14, 7}, {16, 8}, {18, 9}, {20, 10}, {22, 11}, {24, 12}, {26, 13}, {28, 14}, {30, 15}}
	if got := rf.Collect(0); !slices.Equal(got, want0) {
		t.Fatalf("range [10,30] = %v, want %v", got, want0)
	}
	// Limit truncates the merged stream, not any single shard's part.
	got1 := rf.Collect(1)
	if len(got1) != 7 {
		t.Fatalf("limited range returned %d entries, want 7", len(got1))
	}
	for i, e := range got1 {
		if e.Key != uint64(i)*2 || e.Code != uint32(i) {
			t.Fatalf("limited range entry %d = %+v, want {%d %d}", i, e, i*2, i)
		}
	}
	if got := rf.Collect(2); len(got) != 0 {
		t.Fatalf("out-of-domain range returned %v", got)
	}
	// Streams are repeatable and early-break safe.
	n := 0
	for range rf.Entries(0) {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early break consumed %d entries", n)
	}
	if again := rf.Collect(0); !slices.Equal(again, want0) {
		t.Fatal("second pass over Entries diverged")
	}
}

// TestRangeInvertedAndCancelled: an inverted range (lo > hi) is empty,
// and a cancelled range batch is dropped whole, unprobed.
func TestRangeInvertedAndCancelled(t *testing.T) {
	s, err := New(testDomain(50, 1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if got := s.Range(ctx, 40, 10, 0).Collect(0); len(got) != 0 {
		t.Fatalf("inverted range returned %v", got)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	rf := s.Range(cancelled, 0, 49, 0)
	if !rf.Dropped() {
		t.Fatal("cancelled range not reported dropped")
	}
	if got := rf.Collect(0); len(got) != 0 {
		t.Fatalf("cancelled range returned entries: %v", got)
	}
	st := s.Stats()
	if st.Dropped == 0 {
		t.Fatal("cancelled range not counted in Stats.Dropped")
	}
}

// TestRangeAdmissionPanics pins the routing misuse panics: OpRange
// cannot go through point or vectorized key admission, and RangeBatch
// only accepts OpRange.
func TestRangeAdmissionPanics(t *testing.T) {
	s, err := New(testDomain(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("Submit of OpRange", func() { s.Submit(ctx, RangeOp(0, 5, 0)) })
	expectPanic("SubmitBatch of OpRange", func() { s.SubmitBatch(ctx, OpRange, []uint64{1}) })
	expectPanic("RangeBatch of OpLookup", func() { s.RangeBatch(ctx, []Op{{Kind: OpLookup, Key: 1}}) })
}

// TestRangeOnJoinService: ranges are a dictionary operation and work on
// a join service too (the build side plays no part).
func TestRangeOnJoinService(t *testing.T) {
	domain := testDomain(40, 2)
	build := []BuildTuple{{Key: 4, Payload: 11}, {Key: 4, Payload: 22}}
	s, err := New(domain, WithShards(2), WithBuild(build))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	got := s.Range(ctx, 4, 8, 0).Collect(0)
	want := []RangeEntry{{4, 2}, {6, 3}, {8, 4}}
	if !slices.Equal(got, want) {
		t.Fatalf("join-service range = %v, want %v", got, want)
	}
	if jr := s.Join(ctx, 4); jr.Hits != 2 {
		t.Fatalf("join after range = %+v", jr)
	}
}

// TestRangeAdaptiveGroupConverges sanity-checks that a range-only
// workload feeds the hill climber: the controller must record epochs
// and keep the group in bounds (the third workload shape the adaptive
// argument covers).
func TestRangeAdaptiveGroupConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive convergence run; skipped under -short")
	}
	domain := testDomain(1<<15, 1)
	s, err := New(domain, WithShards(2), WithAdaptive(true, 2), WithGroup(6, 1, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(3, 4))
	ops := make([]Op, 64)
	for i := 0; i < 40; i++ {
		for j := range ops {
			lo := rng.Uint64N(1 << 15)
			ops[j] = RangeOp(lo, lo+8, 0) // seek-dominated: short scans
		}
		s.RangeBatch(ctx, ops).Wait()
	}
	st := s.Stats()
	for _, ss := range st.Shards {
		if len(ss.GroupHistory) == 0 {
			t.Fatalf("shard %d: range workload drove no controller epochs", ss.Shard)
		}
		for _, g := range ss.GroupHistory {
			if g < 1 || g > 32 {
				t.Fatalf("shard %d: group %d escaped bounds", ss.Shard, g)
			}
		}
	}
}
