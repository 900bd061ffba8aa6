package serve

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/native"
	"repro/internal/nativejoin"
)

// BenchmarkDrainKernels is the serve layer's kernel number: what one shard
// pays per key to drain a 1024-key segment through lookupBatch and through
// the join key column's drainOps (gather, both stages, match stream and
// result scatter), next to the standalone kernels on the same table
// (native.RunSequential / RunFrameDirect, and Table.RunSequential over the
// codes the dictionary stage resolves to). Whatever lookupBatch costs over
// RunFrameDirect at the same group is the two-level split (the page
// sample searched in lockstep, then suspended levels inside one page
// instead of over the whole column), the scheduler, the delta check and
// the result scatter; native.RunGP is the level-synchronous (lockstep)
// form of the full-column search, on record as the number a lockstep
// lookup drain would be measured against. The 2^15-key table is
// cache-resident (switch cost unhidden), the 2^23-key one far beyond the
// LLC (the paper's case), and 2^21 keys — join_probe's per-shard table —
// the middle of the curve. Keys are redrawn before every call, untimed,
// so no kernel turns cache-warm.
func BenchmarkDrainKernels(b *testing.B) {
	const vec = 1024
	groups := []int{1, 6, 16, 32}
	for _, logN := range []int{15, 21, 23} {
		n := 1 << logN
		table := make([]uint64, n)
		codes := make([]uint32, n)
		jt := nativejoin.New(n)
		for i := range table {
			table[i] = uint64(i) * 2
			codes[i] = uint32(i)
			jt.Insert(uint64(i), uint32(i))
		}
		rng := rand.New(rand.NewPCG(uint64(logN), 14))
		keys := make([]uint64, vec)
		fresh := func() {
			for i := range keys {
				keys[i] = rng.Uint64N(uint64(2 * n)) // odd keys, half of them, miss
			}
		}
		run := func(name string, fn func()) {
			b.Run(fmt.Sprintf("keys=2^%d/%s", logN, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fresh()
					b.StartTimer()
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vec), "ns/key")
			})
		}

		pos := make([]int, vec)
		run("native.RunSequential", func() { native.RunSequential(table, keys, pos) })
		for _, g := range groups {
			run(fmt.Sprintf("native.RunFrameDirect/g=%d", g), func() { native.RunFrameDirect(table, keys, g, pos) })
		}
		for _, g := range groups {
			run(fmt.Sprintf("native.RunGP/g=%d", g), func() { native.RunGP(table, keys, g, pos) })
		}
		x := newIndex(table, codes, native.Sample(table), jt)
		out := make([]Result, vec)
		for _, g := range groups {
			run(fmt.Sprintf("lookupBatch/g=%d", g), func() { x.lookupBatch(deltaView{}, keys, g, out) })
		}

		jres := make([]nativejoin.Result, vec)
		run("Table.RunSequential", func() {
			for i, k := range keys {
				keys[i] = k / 2 // the code a found key resolves to
			}
			jt.RunSequential(keys, jres)
		})
		bf := &BatchFuture{kind: OpJoin, keys: keys, res: make([]Result, vec), jres: make([]JoinResult, vec), matches: make([][]Match, 1)}
		perm := make([]uint32, vec)
		for i := range perm {
			perm[i] = uint32(i)
		}
		var rs runScratch
		for _, g := range groups {
			run(fmt.Sprintf("join.drainOps/g=%d", g), func() {
				bf.matches[0] = bf.matches[0][:0]
				ks, pos, o := rs.gather(bf, perm)
				x.drainOps(deltaView{}, bf, pos, ks, g, o, &bf.matches[0])
			})
		}
	}
}
