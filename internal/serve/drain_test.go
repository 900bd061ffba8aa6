package serve

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/native"
	"repro/internal/nativejoin"
)

// This file pins the index's drains (lookupBatch, the join
// drainBatch/drainSegment, scanRanges) to their sequential
// references — native.Baseline behind the delta, Table.ProbeEach in chain
// order, native.RangeSeekScan — over every batch shape the flat scheduler
// treats differently: group 1…MaxGroup+1, n around the group, inputs that
// decline their start (dropped futures, delta hits and tombstones, an
// empty table, inverted ranges) at the first, last and every position,
// and duplicate keys.

// drainWorld is one shard's data as the drains see it.
type drainWorld struct {
	table []uint64
	codes []uint32
	jt    *nativejoin.Table
	dv    deltaView
	x     index
}

// Key law of the test worlds: 4j is in the table (code 1000+j) for
// j < drainTableLen; 4j+1 is a delta upsert (code 7000+j), 4j+2 a delta
// tombstone, 4j+3 in neither; every fifth table key is also overridden in
// the delta (alternately upserted and tombstoned), so the delta has to win
// over main. Build tuples hang off table codes and delta codes alike.
const drainTableLen = 37

func newDrainWorld(tableLen int, withDelta bool) *drainWorld {
	w := &drainWorld{}
	for j := 0; j < tableLen; j++ {
		w.table = append(w.table, uint64(4*j))
		w.codes = append(w.codes, uint32(1000+j))
	}
	var part []writeEntry
	if withDelta {
		for j := 0; j < drainTableLen; j++ {
			if j%5 == 0 {
				part = append(part, writeEntry{key: uint64(4 * j), val: uint32(7000 + j), del: j%10 == 0})
			}
			part = append(part,
				writeEntry{key: uint64(4*j + 1), val: uint32(7000 + j)},
				writeEntry{key: uint64(4*j + 2), del: true})
		}
	}
	return w.index(part)
}

// newPageWorld is a world for the two-level search's page windows: table
// key 4(j+1) with code 1000+j, so keys 0…3 fall below the first entry.
// With delta, every sampled key (native.Sample: every PageKeys-th) is
// overridden — upserted and tombstoned alternately — and its neighbours
// are an upsert (below) and a tombstone (above), so delta answers land
// on every window boundary.
func newPageWorld(tableLen int, withDelta bool) *drainWorld {
	w := &drainWorld{}
	for j := 0; j < tableLen; j++ {
		w.table = append(w.table, uint64(4*(j+1)))
		w.codes = append(w.codes, uint32(1000+j))
	}
	var part []writeEntry
	if withDelta {
		for j := 0; j < tableLen; j += native.PageKeys {
			m := j / native.PageKeys
			s := w.table[j]
			part = append(part,
				writeEntry{key: s - 1, val: uint32(7000 + m)},
				writeEntry{key: s, val: uint32(7000 + m), del: m%2 == 1},
				writeEntry{key: s + 1, del: true})
		}
	}
	return w.index(part)
}

// pageKeys are the probes of a page world: every sampled key and one
// below and one above it, the last key of every window, keys below the
// first and above the last entry, 0 and MaxUint64.
func pageKeys(table []uint64) []uint64 {
	keys := []uint64{0, 1, 3, math.MaxUint64 - 1, math.MaxUint64}
	if n := len(table); n > 0 {
		keys = append(keys, table[n-1], table[n-1]+1, table[n-1]+4)
	}
	for j := 0; j < len(table); j += native.PageKeys {
		keys = append(keys, table[j]-1, table[j], table[j]+1)
		if j > 0 {
			keys = append(keys, table[j-1])
		}
	}
	return keys
}

// index completes a world over its table: the build side (chains of
// multiplicity 0..3 hang off table codes and delta codes alike, so they
// diverge), part as the delta, and the index.
func (w *drainWorld) index(part []writeEntry) *drainWorld {
	w.jt = nativejoin.New(256)
	for j := 0; j < drainTableLen; j++ {
		for m := 0; m < j%4; m++ {
			w.jt.Insert(uint64(1000+j), uint32(10*j+m))
			w.jt.Insert(uint64(7000+j), uint32(50*j+m))
		}
	}
	if part != nil {
		w.dv = deltaView{parts: [][]writeEntry{part}}
	}
	w.x = newIndex(w.table, w.codes, native.Sample(w.table), w.jt)
	return w
}

// lookup is the sequential reference of the delta-then-main composite.
func (w *drainWorld) lookup(key uint64) Result {
	switch v, oc := w.dv.lookup(key); oc {
	case deltaHit:
		return Result{Code: v, Found: true}
	case deltaDel:
		return Result{Code: NotFound}
	}
	if len(w.table) > 0 {
		if low := native.Baseline(w.table, key); w.table[low] == key {
			return Result{Code: w.codes[low], Found: true}
		}
	}
	return Result{Code: NotFound}
}

// join is the sequential reference of the dictionary→probe pipeline: the
// aggregate and the matching payloads in chain order.
func (w *drainWorld) join(key uint64) (JoinResult, []uint32) {
	r := w.lookup(key)
	if !r.Found {
		return JoinResult{Code: NotFound}, nil
	}
	var payloads []uint32
	pr := w.jt.ProbeEach(uint64(r.Code), func(p uint32) { payloads = append(payloads, p) })
	return JoinResult{Code: r.Code, Hits: pr.Hits, Agg: pr.Agg}, payloads
}

// checkDrains runs every drain over keys at the given group and
// compares each against its reference. A masked input has its future
// dropped in drainBatch and its range inverted in scanRanges (the key-driven
// declines — delta hits, tombstones, the empty table — follow from the
// keys themselves).
func checkDrains(t *testing.T, w *drainWorld, keys []uint64, group int, masked func(i int) bool) {
	t.Helper()
	n := len(keys)

	out := make([]Result, n)
	w.x.lookupBatch(w.dv, keys, group, out)
	for i, k := range keys {
		if want := w.lookup(k); out[i] != want {
			t.Fatalf("lookupBatch g=%d n=%d: key[%d]=%d → %+v, want %+v", group, n, i, k, out[i], want)
		}
	}

	// drainBatch: point futures, lookups and joins alternating.
	sub := make([]*Future, n)
	for i, k := range keys {
		kind := OpLookup
		if i%2 == 1 {
			kind = OpJoin
		}
		sub[i] = &Future{op: Op{Kind: kind, Key: k}, dropped: masked(i)}
	}
	var ps pointScratch
	gk, gout, live := ps.gather(sub)
	w.x.drainBatch(w.dv, live, gk, group, gout)
	for i, f := range sub {
		wantRes, wantJoin := w.lookup(f.op.Key), JoinResult{}
		if f.op.Kind == OpJoin {
			wantJoin, _ = w.join(f.op.Key)
		}
		if f.dropped {
			wantRes, wantJoin = Result{}, JoinResult{} // never probed
		}
		if f.res != wantRes || f.jres != wantJoin {
			t.Fatalf("drainBatch g=%d n=%d: future[%d] key %d dropped=%v → %+v %+v, want %+v %+v",
				group, n, i, f.op.Key, f.dropped, f.res, f.jres, wantRes, wantJoin)
		}
	}

	// drainSegment: the segment sits at an offset inside its batch, so
	// result and match indices must be batch-relative.
	const lo = 2
	for _, kind := range []OpKind{OpLookup, OpJoin} {
		bf := &BatchFuture{
			kind:    kind,
			keys:    append([]uint64{^uint64(0), ^uint64(0)}, keys...),
			res:     make([]Result, lo+n),
			jres:    make([]JoinResult, lo+n),
			matches: make([][]Match, 1),
		}
		w.x.drainSegment(w.dv, bf, 0, lo, lo+n, group)
		got := make([][]uint32, n)
		for _, m := range bf.matches[0] {
			i := m.Probe - lo
			if i < 0 || i >= n || m.Key != keys[i] || m.Code != bf.jres[m.Probe].Code {
				t.Fatalf("drainSegment g=%d n=%d: stray match %+v", group, n, m)
			}
			got[i] = append(got[i], m.Payload)
		}
		for i, k := range keys {
			if want := w.lookup(k); bf.res[lo+i] != want {
				t.Fatalf("drainSegment %v g=%d n=%d: key[%d]=%d → %+v, want %+v", kind, group, n, i, k, bf.res[lo+i], want)
			}
			var wantJoin JoinResult
			var wantPayloads []uint32
			if kind == OpJoin {
				wantJoin, wantPayloads = w.join(k)
			}
			if bf.jres[lo+i] != wantJoin || !slices.Equal(got[i], wantPayloads) {
				t.Fatalf("drainSegment %v g=%d n=%d: key[%d]=%d → %+v matches %v, want %+v matches %v",
					kind, group, n, i, k, bf.jres[lo+i], got[i], wantJoin, wantPayloads)
			}
		}
	}

	// scanRanges: one range per key, widths 0..16, every third one limited.
	ops := make([]Op, n)
	limits := make([]int, n)
	pairs := make([][]native.Pair, n)
	for i, k := range keys {
		ops[i] = RangeOp(k, k+uint64(i%5)*4, 0)
		if masked(i) {
			ops[i].Key, ops[i].Hi = ops[i].Hi+1, ops[i].Key
		}
		if i%3 == 2 {
			limits[i] = 1 + i%2
		}
	}
	w.x.scanRanges(ops, limits, group, pairs)
	for i, op := range ops {
		var want []native.Pair
		native.RangeSeekScan(w.table, w.codes, op.Key, op.Hi, limits[i], &want)
		if !slices.Equal(pairs[i], want) {
			t.Fatalf("scanRanges g=%d n=%d: range[%d] [%d,%d] limit %d → %v, want %v", group, n, i, op.Key, op.Hi, limits[i], pairs[i], want)
		}
	}
}

func TestDrainEquivalence(t *testing.T) {
	worlds := []struct {
		name string
		w    *drainWorld
	}{
		{"table", newDrainWorld(drainTableLen, false)},
		{"table+delta", newDrainWorld(drainTableLen, true)},
		{"empty", newDrainWorld(0, false)},
		{"empty+delta", newDrainWorld(0, true)},
		{"one-key", newDrainWorld(1, true)},
	}
	declines := []struct {
		name string
		at   func(i, n int) bool
	}{
		{"none", func(i, n int) bool { return false }},
		{"first", func(i, n int) bool { return i == 0 }},
		{"last", func(i, n int) bool { return i == n-1 }},
		{"every", func(i, n int) bool { return true }},
	}
	for _, wc := range worlds {
		for _, dc := range declines {
			t.Run(wc.name+"/"+dc.name, func(t *testing.T) {
				for g := 1; g <= DefaultConfig().MaxGroup+1; g++ {
					for _, n := range []int{0, 1, g - 1, g, g + 1, 3*g + 2} {
						// A declining input draws a key the delta resolves
						// (upsert, tombstone, overridden table key in turn)
						// and is masked; the others draw table keys and
						// absent keys from a window narrower than n, so keys
						// repeat.
						keys := make([]uint64, n)
						for i := range keys {
							j := uint64(i*7) % 20
							if dc.at(i, n) {
								keys[i] = [...]uint64{4*j + 1, 4*j + 2, 4 * (j - j%5)}[i%3]
							} else {
								keys[i] = [...]uint64{4*j + 4, 4*j + 3}[i%2]
								if keys[i]%20 == 0 {
									keys[i] += 4 // not an overridden table key
								}
							}
						}
						checkDrains(t, wc.w, keys, g, func(i int) bool { return dc.at(i, n) })
					}
				}
			})
		}
	}
	// Page windows: tables around a page boundary, where the two-level
	// search's stage 1 picks the window and stage 2 searches inside it,
	// with and without delta answers on the window boundaries.
	for _, n := range []int{0, 1, 511, 512, 513, 1023, 1024, 1025, 3*native.PageKeys + 7, 1 << 15} {
		for _, withDelta := range []bool{false, true} {
			w := newPageWorld(n, withDelta)
			keys := pageKeys(w.table)
			t.Run(fmt.Sprintf("pages/n=%d/delta=%v", n, withDelta), func(t *testing.T) {
				for _, g := range []int{1, 6, 16, DefaultConfig().MaxGroup + 1} {
					checkDrains(t, w, keys, g, func(i int) bool { return i%7 == 3 })
				}
			})
		}
	}
}

// FuzzDrainEquivalence: arbitrary key vectors (two bytes a key, folded
// into each world's key window so that hits, misses, delta entries and
// duplicates all occur — across every page window of the multi-page
// worlds), group and drop mask through every drain.
func FuzzDrainEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 5, 0, 6, 0, 7, 0, 4}, uint8(2), uint64(0b100101))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, uint8(33), uint64(0))
	f.Add([]byte{}, uint8(0), ^uint64(0))
	f.Add([]byte{8, 3, 8, 4, 8, 5, 16, 3, 16, 4, 16, 5, 24, 27, 24, 28, 0, 3}, uint8(7), uint64(0b1010))
	worlds := []*drainWorld{
		newDrainWorld(drainTableLen, true), newDrainWorld(drainTableLen, false), newDrainWorld(0, true),
		newPageWorld(3*native.PageKeys+7, true), newPageWorld(2*native.PageKeys, false),
	}
	f.Fuzz(func(t *testing.T, raw []byte, group uint8, mask uint64) {
		for _, w := range worlds {
			keys := make([]uint64, min(len(raw)/2, 256))
			for i := range keys {
				keys[i] = (uint64(raw[2*i])<<8 | uint64(raw[2*i+1])) % uint64(4*max(len(w.table), drainTableLen)+8)
			}
			checkDrains(t, w, keys, int(group)%(DefaultConfig().MaxGroup+2), func(i int) bool { return mask>>(i%64)&1 == 1 })
		}
	})
}

// TestDrainKernelsAllocFree: once the slots have grown to the group, a
// drain of any of the three kernels allocates nothing — no handle, no
// per-slot frame, and the start/sink closures stay on the stack.
func TestDrainKernelsAllocFree(t *testing.T) {
	w := newDrainWorld(drainTableLen, true)
	const n, group = 96, 6
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i*5) % (4 * drainTableLen)
	}
	out := make([]Result, n)
	bf := &BatchFuture{kind: OpJoin, keys: keys, res: out, jres: make([]JoinResult, n), matches: make([][]Match, 1)}
	ops := make([]Op, n)
	for i, k := range keys {
		ops[i] = RangeOp(k, k+8, 0)
	}
	limits := make([]int, n)
	pairs := make([][]native.Pair, n)
	for name, drain := range map[string]func(){
		"lookupBatch":  func() { w.x.lookupBatch(w.dv, keys, group, out) },
		"drainSegment": func() { bf.matches[0] = bf.matches[0][:0]; w.x.drainSegment(w.dv, bf, 0, 0, n, group) },
		"scanRanges": func() {
			for i := range pairs {
				pairs[i] = pairs[i][:0]
			}
			w.x.scanRanges(ops, limits, group, pairs)
		},
	} {
		drain() // grow slots, match buffer and pair buffers
		if allocs := testing.AllocsPerRun(20, drain); allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state drain, want 0", name, allocs)
		}
	}
}
