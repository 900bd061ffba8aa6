package serve

import (
	"runtime"
	"testing"
)

// TestMergeIntoSpareAllocatesNoColumn: once a bare shard's spare is large
// enough, a freeze → merge → install cycle writes its merged columns into
// the recycled set and allocates no column. Each cycle is threshold
// upserts of column keys, so the column keeps its length, every cycle
// freezes once and installs the previous cycle's merge. A cycle's
// allocations (the live delta's growth, the flattened generation, the
// epoch) do not depend on the column's length, and its bytes stay below
// the smallest column, the 4n-byte code column.
func TestMergeIntoSpareAllocatesNoColumn(t *testing.T) {
	const threshold, cycles = 16, 50
	allocs := map[int]float64{}
	for _, n := range []int{boundBase, 8 * boundBase} {
		w := newBoundWorldN(t, n, threshold)
		sh, key := w.sh, 0
		cycle := func() {
			for range threshold {
				key = (key + 37) % n
				sh.applyOp(Op{Kind: OpInsert, Key: uint64(4 * key), Val: uint32(key)}, 0)
			}
		}
		for range 3 { // the first two installs allocate the two sets
			cycle()
		}
		from := sh.epoch.Load().seq
		allocs[n] = testing.AllocsPerRun(cycles, cycle)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range cycles {
			cycle()
		}
		runtime.ReadMemStats(&after)
		if installs := sh.epoch.Load().seq - from; installs < 2*cycles {
			t.Fatalf("n=%d: %d installs in %d cycles", n, installs, 2*cycles+1)
		}
		if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= uint64(4*n) {
			t.Fatalf("n=%d: a cycle allocated %d bytes, a code column is %d", n, per, 4*n)
		}
		if sh.met.snapshot(0).WriteStalls != 0 {
			t.Fatalf("n=%d: a freeze found its merge unfinished", n)
		}
	}
	if allocs[boundBase] != allocs[8*boundBase] {
		t.Fatalf("allocations per cycle grow with the column: %v", allocs)
	}
}
