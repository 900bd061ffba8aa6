package serve

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// checkPartitions runs both partitioners over orig and checks each:
// bounds tile [0, n] monotonically, every key sits inside the segment of
// the shard it hashes to — the same shard the equivalent point op would
// land on — and the key multiset is preserved. The in-place form (a nil
// index column: GoBatch's path) permutes a copy; the scatter form must
// leave its source alone, return the same bounds, keep arrival order
// within a segment, and record the permutation: idx is a rearrangement
// of 0..n-1 with dst[j] == orig[idx[j]].
func checkPartitions(t *testing.T, orig []uint64, nsh int) {
	t.Helper()
	n := len(orig)
	check := func(form string, keys []uint64, bounds []int) {
		t.Helper()
		if len(bounds) != nsh+1 || bounds[0] != 0 || bounds[nsh] != n {
			t.Fatalf("%s nsh=%d n=%d: bounds %v do not tile [0,%d]", form, nsh, n, bounds, n)
		}
		for sh := 0; sh < nsh; sh++ {
			if bounds[sh+1] < bounds[sh] {
				t.Fatalf("%s nsh=%d n=%d: bounds %v not monotone", form, nsh, n, bounds)
			}
			for i := bounds[sh]; i < bounds[sh+1]; i++ {
				if got := shardOf(keys[i], nsh); got != sh {
					t.Fatalf("%s nsh=%d n=%d: keys[%d]=%d in segment %d but hashes to shard %d",
						form, nsh, n, i, keys[i], sh, got)
				}
			}
		}
		freq := map[uint64]int{}
		for i := range orig {
			freq[orig[i]]++
			freq[keys[i]]--
		}
		for k, c := range freq {
			if c != 0 {
				t.Fatalf("%s nsh=%d n=%d: key %d count off by %d after partition", form, nsh, n, k, c)
			}
		}
	}

	inPlace := slices.Clone(orig)
	inBounds := partitionByShard(inPlace, nsh, func(k uint64) uint64 { return k })
	check("in-place", inPlace, inBounds)

	src, dst, idx := slices.Clone(orig), make([]uint64, n), make([]uint32, n)
	bounds := scatterByShard(src, dst, idx, nsh)
	check("scatter", dst, bounds)
	if !slices.Equal(src, orig) {
		t.Fatalf("scatter nsh=%d n=%d: source column modified", nsh, n)
	}
	if !slices.Equal(bounds, inBounds) {
		t.Fatalf("scatter nsh=%d n=%d: bounds %v, in-place %v", nsh, n, bounds, inBounds)
	}
	seen := make([]bool, n)
	for j, i := range idx {
		if int(i) >= n || seen[i] {
			t.Fatalf("scatter nsh=%d n=%d: idx %v is not a permutation of 0..%d", nsh, n, idx, n-1)
		}
		seen[i] = true
		if dst[j] != orig[i] {
			t.Fatalf("scatter nsh=%d n=%d: dst[%d]=%d but orig[idx[%d]=%d]=%d", nsh, n, j, dst[j], j, i, orig[i])
		}
	}
	for sh := 0; sh < nsh; sh++ {
		if seg := idx[bounds[sh]:bounds[sh+1]]; !slices.IsSorted(seg) {
			t.Fatalf("scatter nsh=%d n=%d: segment %d not in arrival order: %v", nsh, n, sh, seg)
		}
	}
}

// TestBatchPartitionInPlace checks both shard partitioners — the
// in-place permutation and the scatter with its index column — over
// duplicate-heavy columns at several shard counts and sizes.
func TestBatchPartitionInPlace(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		rng := rand.New(rand.NewPCG(uint64(shards), 3))
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64N(200)
			}
			checkPartitions(t, keys, shards)
		}
	}
}

// TestSubmitBatchScatter drives the scatter admission end to end: the
// caller's source column comes back untouched, result j belongs to
// src[idx[j]] (so un-permuting through idx gives submission order, every
// duplicate its own position), every Match.Probe re-points through idx
// at an occurrence of the matched key, and each position's match count
// equals its Hits. A refused submission leaves the columns unwritten.
func TestSubmitBatchScatter(t *testing.T) {
	const domainN = 300
	rng := rand.New(rand.NewPCG(5, 6))
	var build []BuildTuple
	for range 500 {
		build = append(build, BuildTuple{Key: rng.Uint64N(domainN), Payload: rng.Uint32N(100)})
	}
	s, err := New(testDomain(domainN, 1), WithShards(3), WithBuild(build))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{1, 7, 2000} {
		for _, snapshot := range []bool{false, true} {
			src := make([]uint64, n)
			for i := range src {
				src[i] = rng.Uint64N(domainN + 50) // duplicates and misses
			}
			orig := slices.Clone(src)
			keys, idx := make([]uint64, n), make([]uint32, n)
			bf := s.SubmitBatchScatter(ctx, OpJoin, src, keys, idx, snapshot)
			jres := bf.WaitJoin()
			if err := bf.Err(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(src, orig) {
				t.Fatalf("n=%d: source column modified", n)
			}
			res := bf.Wait()
			hits := make([]uint32, n)
			for j := range keys {
				i := idx[j]
				if keys[j] != orig[i] {
					t.Fatalf("n=%d: keys[%d]=%d, src[idx]=%d", n, j, keys[j], orig[i])
				}
				want := Result{Code: NotFound}
				if k := orig[i]; k < domainN {
					want = Result{Code: uint32(k), Found: true}
				}
				if res[j] != want {
					t.Fatalf("n=%d position %d key %d: %+v, want %+v", n, i, orig[i], res[j], want)
				}
				hits[i] = jres[j].Hits
			}
			for m := range bf.Matches() {
				i := idx[m.Probe]
				if orig[i] != m.Key {
					t.Fatalf("n=%d: match for key %d re-points to position %d holding %d", n, m.Key, i, orig[i])
				}
				hits[i]--
			}
			for i, h := range hits {
				if h != 0 {
					t.Fatalf("n=%d position %d (key %d): Hits and streamed matches differ by %d", n, i, orig[i], int32(h))
				}
			}
		}
	}

	s.Close()
	keys, idx := []uint64{99}, []uint32{99}
	if bf := s.SubmitBatchScatter(ctx, OpLookup, []uint64{1}, keys, idx, false); bf.Err() != ErrClosed || keys[0] != 99 || idx[0] != 99 {
		t.Fatalf("after Close: err %v, columns %v %v", bf.Err(), keys, idx)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("columns of different lengths must panic")
		}
	}()
	s.SubmitBatchScatter(ctx, OpLookup, []uint64{1, 2}, keys, idx, false)
}

// TestGoBatchMatchesPointOps drives the vectorized lookup path against
// the point path: identical per-key results, and the
// per-shard item counts must show each key was drained by the shard it
// hashes to (empty and single-key batches included).
func TestGoBatchMatchesPointOps(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		const domainN, step = 2000, 3
		vals := testDomain(domainN, step)
		s, err := New(vals, WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx := context.Background()
		rng := rand.New(rand.NewPCG(8, 0))
		for _, n := range []int{0, 1, 777} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64N(domainN*step + 40)
			}
			before := s.Stats()
			bf := s.GoBatch(ctx, keys)
			res := bf.Wait()
			if len(res) != n || len(bf.Keys()) != n {
				t.Fatalf("n=%d: batch returned %d results over %d keys", n, len(res), len(bf.Keys()))
			}
			if bf.Dropped() != 0 {
				t.Fatalf("n=%d: dropped %d without cancellation", n, bf.Dropped())
			}
			// Snapshot before the point-op comparisons below, so the
			// per-shard deltas attribute to the batch alone.
			after := s.Stats()
			for i, k := range bf.Keys() {
				wantFound := k%step == 0 && k/step < domainN
				r := res[i]
				if r.Found != wantFound || (wantFound && uint64(r.Code) != k/step) || r.Dropped {
					t.Fatalf("n=%d key %d: batch result %+v", n, k, r)
				}
				if want := s.Lookup(ctx, k); r != want {
					t.Fatalf("n=%d key %d: batch %+v != point %+v", n, k, r, want)
				}
			}
			// The batch's keys must have been drained by their hash
			// shard.
			want := map[int]uint64{}
			for _, k := range keys {
				want[shardOf(k, len(s.shards))]++
			}
			for i := range s.shards {
				got := after.Shards[i].Items - before.Shards[i].Items
				if got != want[i] {
					t.Fatalf("n=%d shard %d drained %d batch items, want %d", n, i, got, want[i])
				}
			}
		}
	})
}

// TestBatchCancelledContext: a batch submitted under an already-
// cancelled context must complete with every key marked Dropped, never
// reach a shard drain (Items unchanged), and be counted in Stats.
func TestBatchCancelledContext(t *testing.T) {
	s, err := New(testDomain(500, 1), WithShards(4),
		WithBuild([]BuildTuple{{Key: 5, Payload: 50}}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := context.Background()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i * 2)
	}
	before := s.Stats()
	bf := s.JoinBatch(cancelled, keys)
	res := bf.Wait()
	jres := bf.WaitJoin()
	if bf.Dropped() != len(keys) {
		t.Fatalf("cancelled batch dropped %d of %d", bf.Dropped(), len(keys))
	}
	for i := range res {
		if !res[i].Dropped || res[i].Found || res[i].Code != NotFound {
			t.Fatalf("cancelled result[%d] = %+v", i, res[i])
		}
		if !jres[i].Dropped || jres[i].Hits != 0 {
			t.Fatalf("cancelled join result[%d] = %+v", i, jres[i])
		}
	}
	for m := range bf.Matches() {
		t.Fatalf("cancelled batch streamed match %+v", m)
	}
	after := s.Stats()
	if after.Items != before.Items {
		t.Fatalf("cancelled batch reached a drain: items %d -> %d", before.Items, after.Items)
	}
	if got := after.Dropped - before.Dropped; got != uint64(len(keys)) {
		t.Fatalf("stats dropped rose by %d, want %d", got, len(keys))
	}

	// An empty cancelled batch completes immediately and counts nothing.
	ebf := s.GoBatch(cancelled, nil)
	if r := ebf.Wait(); len(r) != 0 || ebf.Dropped() != 0 {
		t.Fatalf("empty cancelled batch = %d results, %d dropped", len(r), ebf.Dropped())
	}

	// The service must still serve live traffic afterwards.
	if r := s.Join(live, 5); r.Hits != 1 || r.Agg != 50 {
		t.Fatalf("join(5) after cancelled batch = %+v", r)
	}
}

// TestPointCancelledContext: point submissions under a cancelled
// context are dropped before the kernel runs — on both the lookup-only
// and the staged join drain paths — and counted in Stats.
func TestPointCancelledContext(t *testing.T) {
	for _, withBuild := range []bool{false, true} {
		opts := []Option{WithShards(2), WithAdmission(8, 50*time.Microsecond)}
		if withBuild {
			opts = append(opts, WithBuild([]BuildTuple{{Key: 3, Payload: 30}}))
		}
		s, err := New(testDomain(100, 1), opts...)
		if err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		var futs []*Future
		for i := 0; i < 64; i++ {
			futs = append(futs, s.Go(cancelled, uint64(i)))
		}
		for i, f := range futs {
			if r := f.Wait(); !r.Dropped || r.Found {
				t.Fatalf("build=%v: cancelled point future %d = %+v", withBuild, i, r)
			}
		}
		// Live traffic still resolves.
		if r := s.Lookup(context.Background(), 3); !r.Found || r.Code != 3 {
			t.Fatalf("build=%v: live lookup = %+v", withBuild, r)
		}
		s.Close()
		st := s.Stats()
		if st.Dropped != uint64(len(futs)) {
			t.Fatalf("build=%v: stats dropped = %d, want %d", withBuild, st.Dropped, len(futs))
		}
		if st.Items != 1 {
			t.Fatalf("build=%v: stats items = %d, want 1 (only the live lookup)", withBuild, st.Items)
		}
	}
}

// TestGoBatchAllocsO1 is the admission-cost acceptance check: GoBatch
// must do O(1) allocations per batch — a handful of fixed headers,
// independent of the batch size. The adaptive controller is disabled
// and the native drain reuses its per-slot frames, so the whole submit+wait cycle
// stays allocation-flat; the bound below is the admission headers plus
// scheduler-noise slack.
func TestGoBatchAllocsO1(t *testing.T) {
	s, err := New(testDomain(1<<12, 1), WithShards(4), WithAdaptive(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	// Warm the per-shard drain slots and scratch so steady state is measured.
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
	const bound = 12 // ~6 admission headers + cross-goroutine noise slack
	if small > bound || large > bound {
		t.Fatalf("GoBatch allocations not O(1): %v at n=64, %v at n=4096 (bound %d)", small, large, bound)
	}
	if large > small+2 {
		t.Fatalf("GoBatch allocations grow with batch size: %v at n=64 vs %v at n=4096", small, large)
	}
}

// TestJoinBatchStreamsMatches: the vectorized join path must stream
// exactly the per-probe build matches — each probe's matches equal the
// sequential reference in multiplicity and payload sum, Probe indices
// point at the right key, and the aggregates agree with WaitJoin.
func TestJoinBatchStreamsMatches(t *testing.T) {
	const domainN = 600
	vals := testDomain(domainN, 1)
	rng := rand.New(rand.NewPCG(21, 22))
	var build []BuildTuple
	wantHits := make(map[uint64]uint32)
	wantAgg := make(map[uint64]uint64)
	for i := 0; i < 3000; i++ {
		k := rng.Uint64N(domainN)
		p := rng.Uint32N(1000)
		build = append(build, BuildTuple{Key: k, Payload: p})
		wantHits[k]++
		wantAgg[k] += uint64(p)
	}
	s, err := New(vals, WithShards(4), WithBuild(build))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := make([]uint64, 900)
	for i := range keys {
		keys[i] = rng.Uint64N(domainN + 50) // includes misses
	}
	bf := s.JoinBatch(context.Background(), keys)
	jres := bf.WaitJoin()
	pk := bf.Keys()

	gotHits := make([]uint32, len(pk))
	gotAgg := make([]uint64, len(pk))
	var streamed uint64
	for m := range bf.Matches() {
		if m.Probe < 0 || m.Probe >= len(pk) {
			t.Fatalf("match probe index %d out of range", m.Probe)
		}
		if m.Key != pk[m.Probe] {
			t.Fatalf("match %+v: key does not sit at probe index (keys[%d]=%d)", m, m.Probe, pk[m.Probe])
		}
		if m.Code != jres[m.Probe].Code {
			t.Fatalf("match %+v: code != join result code %d", m, jres[m.Probe].Code)
		}
		gotHits[m.Probe]++
		gotAgg[m.Probe] += uint64(m.Payload)
		streamed++
	}
	for i, k := range pk {
		if gotHits[i] != wantHits[k] || gotAgg[i] != wantAgg[k] {
			t.Fatalf("probe %d (key %d): streamed hits=%d agg=%d, want %d/%d",
				i, k, gotHits[i], gotAgg[i], wantHits[k], wantAgg[k])
		}
		if jres[i].Hits != wantHits[k] || jres[i].Agg != wantAgg[k] {
			t.Fatalf("probe %d (key %d): aggregate %+v, want %d/%d", i, k, jres[i], wantHits[k], wantAgg[k])
		}
	}
	st := s.Stats()
	if st.JoinHits != streamed {
		t.Fatalf("stats join hits %d != streamed matches %d", st.JoinHits, streamed)
	}

	// Early-terminated iteration must not wedge anything.
	count := 0
	for range bf.Matches() {
		count++
		if count == 3 {
			break
		}
	}
	if streamed >= 3 && count != 3 {
		t.Fatalf("early break consumed %d matches", count)
	}

	// A lookup batch on the join service streams nothing but resolves
	// codes through stage 1 of the join drain.
	lbf := s.GoBatch(context.Background(), append([]uint64(nil), keys...))
	for m := range lbf.Matches() {
		t.Fatalf("lookup batch streamed match %+v", m)
	}
	for i, k := range lbf.Keys() {
		r := lbf.Wait()[i]
		if wantFound := k < domainN; r.Found != wantFound || (wantFound && uint64(r.Code) != k) {
			t.Fatalf("lookup batch key %d = %+v", k, r)
		}
	}
}

// TestBatchConcurrentWithPointOps mixes vectorized and point traffic
// from several goroutines and checks both stay correct and the item
// accounting adds up.
func TestBatchConcurrentWithPointOps(t *testing.T) {
	const domainN, step = 3000, 2
	s, err := New(testDomain(domainN, step), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan uint64, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			rng := rand.New(rand.NewPCG(uint64(w), 77))
			var submitted uint64
			for round := 0; round < 20; round++ {
				if w%2 == 0 {
					keys := make([]uint64, 128)
					for i := range keys {
						keys[i] = rng.Uint64N(domainN * step)
					}
					bf := s.GoBatch(ctx, keys)
					for i, k := range bf.Keys() {
						r := bf.Wait()[i]
						wantFound := k%step == 0
						if r.Found != wantFound || (wantFound && uint64(r.Code) != k/step) {
							panic("batch result mismatch under concurrency")
						}
					}
					submitted += 128
				} else {
					k := rng.Uint64N(domainN * step)
					r := s.Lookup(ctx, k)
					wantFound := k%step == 0
					if r.Found != wantFound || (wantFound && uint64(r.Code) != k/step) {
						panic("point result mismatch under concurrency")
					}
					submitted++
				}
			}
			done <- submitted
		}(w)
	}
	var want uint64
	for w := 0; w < 8; w++ {
		want += <-done
	}
	s.Close()
	if st := s.Stats(); st.Items != want {
		t.Fatalf("stats items = %d, want %d", st.Items, want)
	}
}
