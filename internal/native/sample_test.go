package native

import (
	"fmt"
	"math"
	"testing"
)

// TestSampleShape: top[j] = table[j·PageKeys] and ceil(n/PageKeys)
// entries, at every size around a page boundary.
func TestSampleShape(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1023, 1024, 1025, 3*PageKeys + 7} {
		table := make([]uint64, n)
		for i := range table {
			table[i] = uint64(3*i + 1)
		}
		top := Sample(table)
		if want := (n + PageKeys - 1) / PageKeys; len(top) != want || cap(top) != want {
			t.Fatalf("n=%d: len(top)=%d cap %d, want %d", n, len(top), cap(top), want)
		}
		for j, v := range top {
			if v != table[j*PageKeys] {
				t.Fatalf("n=%d: top[%d]=%d, want table[%d]=%d", n, j, v, j*PageKeys, table[j*PageKeys])
			}
		}
	}
}

// TestSampleWindowsVsBaseline pins the lockstep window pass and the
// two-level search it starts to Baseline over the full table: every
// size around a page boundary (a one-entry sample has no lockstep level,
// an empty one answers window 0), every sampled key and its neighbours,
// keys below the first and above the last entry, 0 and MaxUint64, and
// more keys than one lockstep chunk holds. Tables with runs of
// duplicates straddling a page boundary keep Baseline's "largest index"
// answer.
func TestSampleWindowsVsBaseline(t *testing.T) {
	laws := map[string]func(i int) uint64{
		"distinct":   func(i int) uint64 { return uint64(4*i + 10) },
		"duplicates": func(i int) uint64 { return uint64(10 * (i/700 + 1)) },
	}
	for name, law := range laws {
		for _, n := range []int{0, 1, 511, 512, 513, 1023, 1024, 1025, 3*PageKeys + 7, 1 << 15} {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				table := make([]uint64, n)
				for i := range table {
					table[i] = law(i)
				}
				top := Sample(table)
				keys := []uint64{0, 1, math.MaxUint64}
				if n > 0 {
					keys = append(keys, table[0]-1, table[n-1]+1)
				}
				for _, v := range top {
					keys = append(keys, v-1, v, v+1)
				}
				for len(keys) <= 2*windowChunk+1 { // three chunks, the last partial
					keys = append(keys, uint64(len(keys)*len(keys))%uint64(4*n+20))
				}
				wins := make([]int, len(keys))
				calls := 0
				SampleWindows(top, keys, func(i, w int) {
					if i != calls {
						t.Fatalf("emit order: call %d got index %d", calls, i)
					}
					calls++
					wins[i] = w
				})
				if calls != len(keys) {
					t.Fatalf("emit called %d times for %d keys", calls, len(keys))
				}
				out := make([]int, len(keys))
				runTwoLevel(table, top, keys, out)
				for i, k := range keys {
					if want := Baseline(top, k); wins[i] != want {
						t.Fatalf("key[%d]=%d: window %d, want Baseline(top)=%d", i, k, wins[i], want)
					}
					if want := Baseline(table, k); out[i] != want {
						t.Fatalf("key[%d]=%d: two-level %d (window %d), want Baseline=%d", i, k, out[i], wins[i], want)
					}
				}
			})
		}
	}
}
