package serve

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"
)

// awaitRebuild returns the service's stats once at least one epoch rebuild
// has installed, failing the test after 2 s without one. A test that has
// written past the rebuild threshold has started a merge, but after the
// last write the shard finishes it in idle steps on its own goroutine —
// so asserting Rebuilds > 0 straight after the last write races the
// shard. The sweep below keeps every shard touched while this polls.
func awaitRebuild(t *testing.T, s *Service) Stats {
	t.Helper()
	keys := make([]uint64, 64) // 0..63 reach every shard, in whatever order GoBatch leaves them
	for i := range keys {
		keys[i] = uint64(i)
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		if st := s.Stats(); st.Rebuilds > 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatal("no epoch rebuild installed within 2s of the writes that forced one")
		}
		s.GoBatch(context.Background(), keys).Wait()
	}
}

// TestWritesVisibleAcrossRebuilds drives inserts, upserts, and deletes
// with a tiny rebuild threshold and checks
// read-your-writes at every step — before, during, and after epoch
// rebuilds — plus the write and rebuild accounting.
func TestWritesVisibleAcrossRebuilds(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		const domainN = 300
		vals := testDomain(domainN, 2) // even values; odd keys start absent
		// MaxBatch 1 seals every point op immediately, so the sequential
		// submit-and-wait replay is deterministic and fast.
		s, err := New(vals, WithShards(3), WithAdmission(1, 50*time.Microsecond), WithRebuildThreshold(8))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		// Mirror of the expected dictionary state.
		ref := map[uint64]uint32{}
		for i := 0; i < domainN; i++ {
			ref[uint64(i)*2] = uint32(i)
		}
		rng := rand.New(rand.NewPCG(7, 0))
		var inserts, deletes uint64
		for step := 0; step < 600; step++ {
			key := rng.Uint64N(domainN * 2)
			switch rng.Uint64N(4) {
			case 0: // insert (fresh or upsert)
				val := rng.Uint32N(1 << 30)
				if r := s.Insert(ctx, key, val).Wait(); !r.Found || r.Code != val {
					t.Fatalf("step %d: insert ack = %+v", step, r)
				}
				ref[key] = val
				inserts++
			case 1: // delete (possibly absent)
				if r := s.Delete(ctx, key).Wait(); r.Found || r.Code != NotFound || r.Dropped {
					t.Fatalf("step %d: delete ack = %+v", step, r)
				}
				delete(ref, key)
				deletes++
			default: // lookup
				r := s.Lookup(ctx, key)
				want, ok := ref[key]
				if r.Found != ok || (ok && r.Code != want) {
					t.Fatalf("step %d: lookup(%d) = %+v, want %d (present %v)", step, key, r, want, ok)
				}
			}
		}
		// Drain any pending installs by touching every shard, then do a
		// full sweep: every key in range must match the reference.
		keys := make([]uint64, domainN*2)
		for i := range keys {
			keys[i] = uint64(i)
		}
		bf := s.GoBatch(ctx, keys)
		res := bf.Wait()
		for i, k := range bf.Keys() {
			want, ok := ref[k]
			if res[i].Found != ok || (ok && res[i].Code != want) {
				t.Fatalf("sweep key %d = %+v, want %d (present %v)", k, res[i], want, ok)
			}
		}
		awaitRebuild(t, s)
		s.Close()
		st := s.Stats()
		if st.Inserts != inserts || st.Deletes != deletes {
			t.Fatalf("stats writes = %d/%d, want %d/%d", st.Inserts, st.Deletes, inserts, deletes)
		}
		var epochs uint64
		for _, ss := range st.Shards {
			epochs += ss.Epoch
			if ss.Epoch != ss.Rebuilds {
				t.Fatalf("shard %d: epoch %d != rebuilds %d", ss.Shard, ss.Epoch, ss.Rebuilds)
			}
		}
		if epochs == 0 {
			t.Fatal("no shard advanced past epoch 0")
		}
	})
}

// TestWriteOrderingWithinMixedBatch checks submission-order semantics on
// the point path: reads submitted after a write in the same sealed
// admission batch observe it, reads before it do not.
func TestWriteOrderingWithinMixedBatch(t *testing.T) {
	for _, withBuild := range []bool{false, true} {
		// Six ops seal one batch by size (the wait bound only covers the
		// trailing single-op lookups below).
		opts := []Option{WithShards(1), WithAdmission(6, 5*time.Millisecond)}
		if withBuild {
			opts = append(opts, WithBuild(nil))
		}
		s, err := New([]uint64{10, 20}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		// One sealed batch of six ops on one shard: the drain must apply
		// them in submission order.
		before := s.Go(ctx, 99)
		ins := s.Insert(ctx, 99, 7)
		mid := s.Go(ctx, 99)
		del := s.Delete(ctx, 99)
		after := s.Go(ctx, 99)
		last := s.Insert(ctx, 99, 8)
		if r := before.Wait(); r.Found {
			t.Fatalf("build=%v: read before insert = %+v", withBuild, r)
		}
		ins.Wait()
		if r := mid.Wait(); !r.Found || r.Code != 7 {
			t.Fatalf("build=%v: read between insert and delete = %+v", withBuild, r)
		}
		del.Wait()
		if r := after.Wait(); r.Found {
			t.Fatalf("build=%v: read after delete = %+v", withBuild, r)
		}
		last.Wait()
		if r := s.Lookup(ctx, 99); !r.Found || r.Code != 8 {
			t.Fatalf("build=%v: final lookup = %+v", withBuild, r)
		}
		s.Close()
	}
}

// TestReadYourWritesAcrossMidBatchInstall is the regression test for a
// mid-sub-batch epoch install: with threshold 1 every insert freezes the
// delta and the next insert's merge step finishes and installs the
// epoch *between ops of one sub-batch*. A read later in the same sub-batch must probe
// the post-install snapshot — an epoch pointer captured once per
// sub-batch returned NotFound for the merged key here.
func TestReadYourWritesAcrossMidBatchInstall(t *testing.T) {
	t.Run("native", func(t *testing.T) {
		s, err := New(testDomain(8, 1), WithShards(1),
			WithAdmission(4, 5*time.Millisecond), WithRebuildThreshold(1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx := context.Background()
		// One sealed sub-batch: three inserts (forcing installs mid-batch)
		// then a lookup of the first key.
		f1 := s.Insert(ctx, 11, 5)
		f2 := s.Insert(ctx, 12, 6)
		f3 := s.Insert(ctx, 13, 7)
		look := s.Go(ctx, 11)
		f1.Wait()
		f2.Wait()
		f3.Wait()
		if r := look.Wait(); !r.Found || r.Code != 5 {
			t.Fatalf("lookup(11) after mid-batch installs = %+v, want code 5", r)
		}
	})
}

// TestJoinTracksDictionaryWrites: on a join service, writes edit the
// key → code mapping and join probes follow it. The build side is
// immutable and partitioned by build-key hash, so a probe matches the
// tuples carrying its resolved code *in its own shard's partition*:
// deleting a key removes its matches, re-inserting it with its original
// code restores them, and aliasing a key onto another key's code yields
// that chain exactly when the two keys hash to the same shard. The test
// asserts both sides of that contract.
func TestJoinTracksDictionaryWrites(t *testing.T) {
	const shards = 2
	// Codes: 10→0, 20→1, 30→2. Build tuples on codes 0 (two) and 1 (one).
	build := []BuildTuple{{Key: 10, Payload: 5}, {Key: 10, Payload: 6}, {Key: 20, Payload: 9}}
	s, err := New([]uint64{10, 20, 30}, WithShards(shards),
		WithAdmission(1, 50*time.Microsecond), WithRebuildThreshold(4), WithBuild(build))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if r := s.Join(ctx, 10); r.Hits != 2 || r.Agg != 11 {
		t.Fatalf("join(10) = %+v", r)
	}
	// Fresh keys co-sharded and cross-sharded with key 20 (code 1).
	var same, other uint64
	for k := uint64(100); same == 0 || other == 0; k++ {
		if shardOf(k, shards) == shardOf(20, shards) {
			if same == 0 {
				same = k
			}
		} else if other == 0 {
			other = k
		}
	}
	s.Insert(ctx, same, 1).Wait()
	s.Insert(ctx, other, 1).Wait()
	if r := s.Join(ctx, same); r.Code != 1 || r.Hits != 1 || r.Agg != 9 {
		t.Fatalf("join(%d) aliased onto co-sharded code 1 = %+v", same, r)
	}
	if r := s.Join(ctx, other); r.Code != 1 || r.Hits != 0 {
		t.Fatalf("join(%d) aliased onto cross-shard code 1 = %+v", other, r)
	}
	// Delete masks key 10's chain; re-inserting its original code
	// restores it. The extra writes force epoch rebuilds (threshold 4),
	// so the same answers must hold off the delta, too.
	s.Delete(ctx, 10).Wait()
	if r := s.Join(ctx, 10); r.Code != NotFound || r.Hits != 0 {
		t.Fatalf("join(10) after delete = %+v", r)
	}
	s.Insert(ctx, 10, 0).Wait()
	for i := 0; i < 8; i++ {
		s.Insert(ctx, 200+uint64(i), 7).Wait()
	}
	if r := s.Join(ctx, 10); r.Code != 0 || r.Hits != 2 || r.Agg != 11 {
		t.Fatalf("join(10) after re-insert + rebuild churn = %+v", r)
	}
	if r := s.Join(ctx, same); r.Code != 1 || r.Hits != 1 || r.Agg != 9 {
		t.Fatalf("join(%d) after rebuild churn = %+v", same, r)
	}
	// Vectorized joins see the same state and stream the aliased matches.
	bf := s.JoinBatch(ctx, []uint64{10, same, other})
	jres := bf.WaitJoin()
	for i, k := range bf.Keys() {
		var want JoinResult
		switch k {
		case 10:
			want = JoinResult{Code: 0, Hits: 2, Agg: 11}
		case same:
			want = JoinResult{Code: 1, Hits: 1, Agg: 9}
		case other:
			want = JoinResult{Code: 1}
		}
		if jres[i] != want {
			t.Fatalf("batch join(%d) = %+v, want %+v", k, jres[i], want)
		}
	}
	var streamed int
	for m := range bf.Matches() {
		if m.Key != 10 && m.Key != same {
			t.Fatalf("unexpected streamed match %+v", m)
		}
		streamed++
	}
	if streamed != 3 {
		t.Fatalf("streamed %d matches, want 3", streamed)
	}
}

// TestApplyBatchAcksAndVisibility: vectorized writes acknowledge per op
// and become visible to subsequent reads; an ApplyBatch under a
// cancelled context applies nothing.
func TestApplyBatchAcksAndVisibility(t *testing.T) {
	s, err := New(testDomain(100, 1), WithShards(4), WithRebuildThreshold(16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	ops := make([]Op, 0, 64)
	for i := 0; i < 32; i++ {
		ops = append(ops, Op{Kind: OpInsert, Key: uint64(1000 + i), Val: uint32(i)})
	}
	for i := 0; i < 32; i++ {
		ops = append(ops, Op{Kind: OpDelete, Key: uint64(i)})
	}
	bf := s.ApplyBatch(ctx, ops)
	res := bf.Wait()
	if bf.Keys() != nil {
		t.Fatal("write batch exposes Keys()")
	}
	if len(res) != len(ops) || len(bf.Ops()) != len(ops) {
		t.Fatalf("write batch returned %d acks over %d ops", len(res), len(bf.Ops()))
	}
	for i, op := range bf.Ops() {
		want := Result{Code: NotFound}
		if op.Kind == OpInsert {
			want = Result{Code: op.Val, Found: true}
		}
		if res[i] != want {
			t.Fatalf("ack[%d] for %v = %+v, want %+v", i, op.Kind, res[i], want)
		}
	}
	for i := 0; i < 32; i++ {
		if r := s.Lookup(ctx, uint64(1000+i)); !r.Found || r.Code != uint32(i) {
			t.Fatalf("lookup(%d) after ApplyBatch = %+v", 1000+i, r)
		}
		if r := s.Lookup(ctx, uint64(i)); r.Found {
			t.Fatalf("lookup(%d) after batched delete = %+v", i, r)
		}
	}

	// Cancelled write batches drop whole segments unapplied.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	st0 := s.Stats()
	cops := []Op{{Kind: OpInsert, Key: 5000, Val: 1}, {Kind: OpDelete, Key: 50}}
	cbf := s.ApplyBatch(cancelled, cops)
	cres := cbf.Wait()
	if cbf.Dropped() != len(cops) {
		t.Fatalf("cancelled ApplyBatch dropped %d of %d", cbf.Dropped(), len(cops))
	}
	for i := range cres {
		if !cres[i].Dropped {
			t.Fatalf("cancelled ack[%d] = %+v", i, cres[i])
		}
	}
	if r := s.Lookup(ctx, 5000); r.Found {
		t.Fatal("cancelled insert was applied")
	}
	if r := s.Lookup(ctx, 50); !r.Found {
		t.Fatal("cancelled delete was applied")
	}
	st1 := s.Stats()
	if got := st1.Dropped - st0.Dropped; got != uint64(len(cops)) {
		t.Fatalf("stats dropped rose by %d, want %d", got, len(cops))
	}
	if st1.Inserts != st0.Inserts || st1.Deletes != st0.Deletes {
		t.Fatal("cancelled writes counted as applied")
	}

	// Empty write batches complete immediately.
	if r := s.ApplyBatch(ctx, nil).Wait(); len(r) != 0 {
		t.Fatalf("empty ApplyBatch returned %d acks", len(r))
	}
}

// TestCancelledPointWritesNotApplied: point writes under a cancelled
// context complete Dropped and never touch the delta.
func TestCancelledPointWritesNotApplied(t *testing.T) {
	s, err := New(testDomain(50, 1), WithShards(2), WithAdmission(4, 50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if r := s.Insert(cancelled, 7, 99).Wait(); !r.Dropped {
		t.Fatalf("cancelled insert = %+v", r)
	}
	if r := s.Delete(cancelled, 7).Wait(); !r.Dropped {
		t.Fatalf("cancelled delete = %+v", r)
	}
	if r := s.Lookup(context.Background(), 7); !r.Found || r.Code != 7 {
		t.Fatalf("key 7 disturbed by cancelled writes: %+v", r)
	}
	if st := s.Stats(); st.Inserts != 0 || st.Deletes != 0 {
		t.Fatalf("cancelled writes applied: %+v", st)
	}
}

// TestRebuildsDisabled: a negative threshold keeps every write in the
// delta — correct answers, growing delta, zero rebuilds.
func TestRebuildsDisabled(t *testing.T) {
	s, err := New(testDomain(10, 1), WithShards(2),
		WithAdmission(1, 50*time.Microsecond), WithRebuildThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		s.Insert(ctx, uint64(100+i), uint32(i)).Wait()
	}
	for i := 0; i < 200; i++ {
		if r := s.Lookup(ctx, uint64(100+i)); !r.Found || r.Code != uint32(i) {
			t.Fatalf("lookup(%d) = %+v", 100+i, r)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Rebuilds != 0 {
		t.Fatalf("rebuilds ran with threshold -1: %d", st.Rebuilds)
	}
	var deltaTotal int
	for _, ss := range st.Shards {
		deltaTotal += ss.DeltaLen
	}
	if deltaTotal != 200 {
		t.Fatalf("delta holds %d entries, want 200", deltaTotal)
	}
}

// TestWriteAdmissionPanics covers the write-path misuse panics.
func TestWriteAdmissionPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	s, err := New(testDomain(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	expectPanic("Insert of NotFound value", func() { s.Insert(ctx, 1, NotFound) })
	expectPanic("SubmitBatch of a write kind", func() { s.SubmitBatch(ctx, OpInsert, []uint64{1}) })
	expectPanic("ApplyBatchAtomic of a read kind", func() { s.ApplyBatchAtomic(ctx, []Op{{Kind: OpLookup, Key: 1}}) })
	expectPanic("ApplyBatch of a range", func() { s.ApplyBatch(ctx, []Op{RangeOp(1, 2, 0)}) })
	expectPanic("ApplyBatch of a join without a build side", func() { s.ApplyBatch(ctx, []Op{{Kind: OpJoin, Key: 1}}) })
}
