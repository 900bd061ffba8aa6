package serve

import (
	"context"
	"math/rand/v2"
	"testing"
)

// This file pins the op column's contract: ApplyBatch and every sealed
// point batch execute per shard in submission order — the last submitted
// write to a key is the one that stays, and a read observes the writes
// submitted before it — with results aligned with the ops as submitted,
// at O(1) allocations per sealed point batch.

// TestOpColumnLastWriteWins: columns of writes over a handful of keys,
// every key written several times per column, through ApplyBatch and
// ApplyBatchAtomic; after each Wait every key must read the column's last
// write to it, and each ack must be its own op's.
func TestOpColumnLastWriteWins(t *testing.T) {
	const keys, perBatch, rounds = 6, 16, 200
	for _, atomic := range []bool{false, true} {
		s, err := New(testDomain(64, 1), WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		rng := rand.New(rand.NewPCG(7, 11))
		want := map[uint64]Result{}
		for r := 0; r < rounds; r++ {
			ops := make([]Op, perBatch)
			for i := range ops {
				k := 1000 + rng.Uint64N(keys)
				if rng.Uint32N(4) == 0 {
					ops[i] = Op{Kind: OpDelete, Key: k}
					want[k] = Result{Code: NotFound}
				} else {
					v := uint32(r*perBatch + i)
					ops[i] = Op{Kind: OpInsert, Key: k, Val: v}
					want[k] = Result{Code: v, Found: true}
				}
			}
			submitted := append([]Op(nil), ops...)
			var bf *BatchFuture
			if atomic {
				bf = s.ApplyBatchAtomic(ctx, ops)
			} else {
				bf = s.ApplyBatch(ctx, ops)
			}
			res := bf.Wait()
			probe := make([]uint64, 0, len(want))
			for k := range want {
				probe = append(probe, k)
			}
			rb := s.GoBatch(ctx, probe)
			for i, got := range rb.Wait() {
				if k := rb.Keys()[i]; got != want[k] {
					t.Fatalf("atomic=%v round %d: key %d reads %+v, want the last write %+v", atomic, r, k, got, want[k])
				}
			}
			for i, op := range submitted {
				if bf.Ops()[i] != op {
					t.Fatalf("atomic=%v round %d: Ops()[%d] = %+v, submitted %+v", atomic, r, i, bf.Ops()[i], op)
				}
				ack := Result{Code: NotFound}
				if op.Kind == OpInsert {
					ack = Result{Code: op.Val, Found: true}
				}
				if res[i] != ack {
					t.Fatalf("atomic=%v round %d: ack[%d] of %+v = %+v, want %+v", atomic, r, i, op, res[i], ack)
				}
			}
		}
		s.Close()
	}
}

// TestOpColumnReadsSeeEarlierWrites: one ApplyBatch column mixing every
// point kind on one key (and a key of every other shard between them):
// each read observes exactly the writes submitted before it, join probes
// included, and results come back aligned with the ops as submitted.
func TestOpColumnReadsSeeEarlierWrites(t *testing.T) {
	build := []BuildTuple{{Key: 5, Payload: 50}, {Key: 5, Payload: 7}}
	s, err := New(testDomain(64, 1), WithShards(4), WithBuild(build))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const k = 5 // code 5, two build tuples
	ops := []Op{
		{Kind: OpJoin, Key: k},
		{Kind: OpDelete, Key: k},
		{Kind: OpLookup, Key: k},
		{Kind: OpJoin, Key: k},
		{Kind: OpInsert, Key: k, Val: 9},
		{Kind: OpLookup, Key: k},
		{Kind: OpInsert, Key: k, Val: 5},
		{Kind: OpJoin, Key: k},
	}
	want := []Result{
		{Code: 5, Found: true}, {Code: NotFound}, {Code: NotFound}, {Code: NotFound},
		{Code: 9, Found: true}, {Code: 9, Found: true}, {Code: 5, Found: true}, {Code: 5, Found: true},
	}
	wantJoin := map[int]JoinResult{
		0: {Code: 5, Hits: 2, Agg: 57},
		3: {Code: NotFound},
		7: {Code: 5, Hits: 2, Agg: 57},
	}
	// Interleave lookups of every other key, so the column spans shards.
	var col []Op
	var at []int
	for i, op := range ops {
		at = append(at, len(col))
		col = append(col, op, Op{Kind: OpLookup, Key: uint64(10 + i)})
	}
	bf := s.ApplyBatch(context.Background(), col)
	res, jres := bf.Wait(), bf.WaitJoin()
	for i, j := range at {
		if res[j] != want[i] {
			t.Fatalf("op %d %+v → %+v, want %+v", i, ops[i], res[j], want[i])
		}
		if wj, ok := wantJoin[i]; ok && jres[j] != wj {
			t.Fatalf("join op %d → %+v, want %+v", i, jres[j], wj)
		}
		if other := res[j+1]; other != (Result{Code: uint32(10 + i), Found: true}) {
			t.Fatalf("lookup of %d → %+v", 10+i, other)
		}
	}
}

// TestPointBatchAllocsO1 is the point path's admission-cost check, in
// the style of TestGoBatchAllocsO1: Submit + Wait of n mixed ops costs
// O(1) allocations per sealed batch — its slab, its columns, its
// grouping and the goroutine a completion dispatches its successor on —
// whatever its size; no Future and no channel per op. Under
// AllocsPerRun's single P the n ops seal as two batches: the first op
// alone, the rest behind it. Rebuilds are off and the writes re-hit the
// same keys, so the delta stops growing after the warm-up.
func TestPointBatchAllocsO1(t *testing.T) {
	allocsAt := func(n int) float64 {
		s, err := New(testDomain(1<<12, 1), WithShards(4), WithAdaptive(false, 0),
			WithAdmission(n), WithRebuildThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx := context.Background()
		futs := make([]*Future, n)
		batch := func() {
			for i := range futs {
				k := uint64(i * 7 % (1 << 12))
				switch i % 8 {
				case 0:
					futs[i] = s.Insert(ctx, k, uint32(i))
				case 1:
					futs[i] = s.Delete(ctx, k)
				default:
					futs[i] = s.Go(ctx, k)
				}
			}
			for _, f := range futs {
				f.Wait()
			}
		}
		batch() // warm the drain slots, the scratch and the delta
		from := seals(s)
		allocs := testing.AllocsPerRun(20, batch)
		t.Logf("n=%d: %.1f batches per run", n, float64(seals(s)-from)/21)
		return allocs
	}
	small, mid, large := allocsAt(64), allocsAt(256), allocsAt(1024)
	t.Logf("allocations per run: %v at n=64, %v at n=256, %v at n=1024", small, mid, large)
	const bound = 16 // 15 for the two sealed batches of a run, plus noise slack
	if small > bound || mid > bound || large > bound {
		t.Fatalf("point batch allocations not O(1): %v at n=64, %v at n=256, %v at n=1024 (bound %d)", small, mid, large, bound)
	}
	if large > small+2 {
		t.Fatalf("point batch allocations grow with batch size: %v at n=64 vs %v at n=1024", small, large)
	}
}
