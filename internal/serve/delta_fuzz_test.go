package serve

import (
	"slices"
	"testing"

	"repro/internal/native"
)

// Fuzz harnesses for the write-buffer pipeline (satellite of the
// multi-version rework): the version-chain delta, the freeze/flatten
// path, and the native bulk merge, each checked against a brute-force
// oracle. The oracles model the CONTRACT (newest visible version wins,
// plain writes collapse chains, tombstones mask, commits gate atomic
// entries) with flat lists and maps — no binary searches, no
// partitioning — so any disagreement points at the real machinery.

// FuzzMergeSorted drives native.MergeSorted with arbitrary base columns
// and update batches (upserts and tombstones, including keys absent
// from the base and empty batches) against a map oracle.
func FuzzMergeSorted(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6, 7, 8})
	f.Add([]byte{}, []byte{0xff, 0x00, 0x41})
	f.Add([]byte{9, 9, 9}, []byte{})
	f.Fuzz(func(t *testing.T, baseRaw, upRaw []byte) {
		// Base column: strictly increasing keys decoded from byte deltas.
		var keys []uint64
		var vals []uint32
		k := uint64(0)
		for i, b := range baseRaw {
			k += uint64(b%16) + 1 // strictly increasing
			keys = append(keys, k)
			vals = append(vals, uint32(i))
		}
		// Update batch: strictly increasing keys overlapping the base
		// range, every third entry a tombstone.
		var upKeys []uint64
		var upVals []uint32
		var del []bool
		u := uint64(0)
		for i, b := range upRaw {
			u += uint64(b%8) + 1
			upKeys = append(upKeys, u)
			upVals = append(upVals, uint32(b)+1000)
			del = append(del, b%3 == 0)
			_ = i
		}
		outK, outV := native.MergeSorted(keys, vals, upKeys, upVals, del)
		// Oracle: base map, then updates applied over it.
		m := make(map[uint64]uint32, len(keys))
		for i, bk := range keys {
			m[bk] = vals[i]
		}
		for i, uk := range upKeys {
			if del[i] {
				delete(m, uk)
			} else {
				m[uk] = upVals[i]
			}
		}
		if len(outK) != len(m) {
			t.Fatalf("merged %d keys, oracle has %d", len(outK), len(m))
		}
		for i, mk := range outK {
			if i > 0 && outK[i-1] >= mk {
				t.Fatalf("merged keys not strictly increasing at %d: %d, %d", i, outK[i-1], mk)
			}
			want, ok := m[mk]
			if !ok {
				t.Fatalf("merged key %d not in oracle", mk)
			}
			if outV[i] != want {
				t.Fatalf("merged key %d -> %d, oracle %d", mk, outV[i], want)
			}
		}
	})
}

// chainOracle mirrors one key's live version chain as a flat
// newest-first list — the contract applyWriteEntry maintains inside the
// sorted delta's duplicate-key runs.
type chainOracle []writeEntry

func (c chainOracle) apply(e writeEntry) chainOracle {
	if e.seq == 0 {
		return chainOracle{e}
	}
	if len(c) > 0 && c[0].seq == e.seq {
		c[0] = e
		return c
	}
	return append(chainOracle{e}, c...)
}

// lookupAt returns the first entry visible at horizon `at`, oldest
// chains searched across the given generation stack newest-first.
func chainsLookupAt(stack []map[uint64]chainOracle, key, at uint64) (uint32, deltaOutcome) {
	for _, gen := range stack {
		for _, e := range gen[key] {
			if e.seq != 0 && e.seq > at {
				continue
			}
			if e.del {
				return NotFound, deltaDel
			}
			return e.val, deltaHit
		}
		if len(gen[key]) > 0 {
			// The run existed but nothing was visible: keep scanning older
			// parts, exactly like deltaView.lookup.
			continue
		}
	}
	return NotFound, deltaMiss
}

// FuzzDeltaChains replays an arbitrary interleaving of plain writes,
// atomic-batch writes, tombstones, commits, and freeze points through
// applyWriteEntry + splitCommitted, then folds every frozen generation,
// oldest first, through flattenGen + MergeSorted as successive epochs
// would absorb them, checking every step against the chain oracle:
// lookups at the commit horizon and at latest, the committed/uncommitted
// partition, and the final merged column.
func FuzzDeltaChains(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77})
	f.Add([]byte{0xf0, 0x0f, 0xf0, 0x0f, 0x80, 0x81, 0x82})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const keySpace = 12
		var (
			delta   []writeEntry
			gens    [][]writeEntry
			hz      uint64
			nextSeq uint64
			// open atomic seqs not yet committed, in mint order
			open []uint64
			// oracle[0] mirrors the live delta; oracle[1:] the frozen
			// generations newest-first.
			oracle = []map[uint64]chainOracle{{}}
		)
		for i := 0; i+2 < len(raw); i += 3 {
			key := uint64(raw[i] % keySpace)
			val := uint32(raw[i+1])
			switch act := raw[i+2] % 10; {
			case act < 4: // plain write (upsert or tombstone)
				del := raw[i+1]%4 == 0
				delta = applyWriteEntry(delta, key, val, del, 0)
				oracle[0][key] = oracle[0][key].apply(writeEntry{key: key, val: val, del: del, seq: 0})
			case act < 7: // atomic write: reuse an open seq or mint one
				var seq uint64
				if len(open) > 0 && raw[i+1]%2 == 0 {
					seq = open[int(raw[i+1]/2)%len(open)]
				} else {
					nextSeq++
					seq = nextSeq
					open = append(open, seq)
				}
				del := raw[i+1]%5 == 0
				delta = applyWriteEntry(delta, key, val, del, seq)
				oracle[0][key] = oracle[0][key].apply(writeEntry{key: key, val: val, del: del, seq: seq})
			case act < 8: // commit the oldest open batch
				if len(open) > 0 && open[0] == hz+1 {
					hz++
					open = open[1:]
				}
			default: // freeze: split the live delta at the horizon
				committed, uncommitted := splitCommitted(delta, hz)
				if len(committed) > 0 {
					gens = append(gens, committed)
					delta = uncommitted
					// Split the oracle's live chains the same way: visible-
					// at-hz entries freeze, the rest stay live.
					frozen := map[uint64]chainOracle{}
					live := map[uint64]chainOracle{}
					for k, c := range oracle[0] {
						for _, e := range c {
							if e.seq == 0 || e.seq <= hz {
								frozen[k] = append(frozen[k], e)
							} else {
								live[k] = append(live[k], e)
							}
						}
					}
					oracle = append([]map[uint64]chainOracle{live, frozen}, oracle[1:]...)
				}
			}
			// Check every key at the horizon and at latest against a view
			// over the live delta + generations newest-first.
			parts := [][]writeEntry{delta}
			for g := len(gens) - 1; g >= 0; g-- {
				parts = append(parts, gens[g])
			}
			for _, at := range []uint64{hz, latestSeq} {
				dv := deltaView{at: at, parts: parts}
				for k := uint64(0); k < keySpace; k++ {
					gotV, gotO := dv.lookup(k)
					wantV, wantO := chainsLookupAt(oracle, k, at)
					if gotV != wantV || gotO != wantO {
						t.Fatalf("step %d key %d at %d: view (%d,%d) oracle (%d,%d)",
							i, k, at, gotV, gotO, wantV, wantO)
					}
				}
			}
			// The live delta must stay sorted with intact runs.
			for j := 1; j < len(delta); j++ {
				if delta[j-1].key > delta[j].key {
					t.Fatalf("step %d: delta unsorted at %d", i, j)
				}
			}
		}
		// Commit everything, freeze the rest, flatten, and bulk-merge into
		// an empty base: the merged column must equal the oracle at latest.
		hz += uint64(len(open))
		if committed, uncommitted := splitCommitted(delta, hz); len(uncommitted) != 0 {
			t.Fatalf("full commit left %d uncommitted entries", len(uncommitted))
		} else if len(committed) > 0 {
			gens = append(gens, committed)
		}
		var outK []uint64
		var outV []uint32
		for _, gen := range gens {
			keys, vals, del, upTo := flattenGen(gen)
			if upTo > hz {
				t.Fatalf("flatten fence %d beyond horizon %d", upTo, hz)
			}
			outK, outV = native.MergeSorted(outK, outV, keys, vals, del)
		}
		want := map[uint64]uint32{}
		allChains := append([]map[uint64]chainOracle{}, oracle...)
		for k := uint64(0); k < keySpace; k++ {
			if v, o := chainsLookupAt(allChains, k, hz); o == deltaHit {
				want[k] = v
			}
		}
		if len(outK) != len(want) {
			t.Fatalf("merged %d keys, oracle has %d", len(outK), len(want))
		}
		for i, k := range outK {
			if v, ok := want[k]; !ok || v != outV[i] {
				t.Fatalf("merged %d -> %d, oracle %d (present %v)", k, outV[i], v, ok)
			}
		}
		if !slices.IsSortedFunc(outK, func(a, b uint64) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		}) {
			t.Fatal("merged keys unsorted")
		}
	})
}

// lowerBoundRef is the slices.BinarySearchFunc search lowerBound replaced:
// duplicate keys (a live version chain) compare equal, so it lands on the
// leftmost — newest — entry of the run.
func lowerBoundRef(part []writeEntry, key uint64) int {
	i, _ := slices.BinarySearchFunc(part, key, func(e writeEntry, k uint64) int {
		switch {
		case e.key < k:
			return -1
		case e.key > k:
			return 1
		}
		return 0
	})
	return i
}

// chainPart builds a sorted part from run lengths: key 10·(j+1) repeated
// runs[j] times, seq-tagged newest-first like a live version chain.
func chainPart(runs []int) []writeEntry {
	var part []writeEntry
	for j, n := range runs {
		for v := n; v > 0; v-- {
			part = append(part, writeEntry{key: uint64(10 * (j + 1)), val: uint32(v), seq: uint64(v)})
		}
	}
	return part
}

// TestLowerBoundOnVersionChains: the branch-free delta lower bound lands
// where the standard binary search did — on the leftmost entry of a
// duplicate-key run — for every part length 0–9, at both extremes of the
// key type, and for probes below, on, between and above the runs.
func TestLowerBoundOnVersionChains(t *testing.T) {
	shapes := [][]int{{}, {1}, {2}, {1, 1}, {3}, {1, 2}, {2, 1, 1}, {1, 3, 1}, {5}, {2, 2, 2}, {4, 3}, {1, 1, 1, 1, 1, 1, 1, 1}, {9}, {3, 3, 3}}
	for _, runs := range shapes {
		part := chainPart(runs)
		probes := []uint64{0, 1, ^uint64(0)}
		for _, e := range part {
			probes = append(probes, e.key-1, e.key, e.key+1)
		}
		for _, k := range probes {
			got, want := lowerBound(part, k), lowerBoundRef(part, k)
			if got != want {
				t.Fatalf("runs %v: lowerBound(%d) = %d, want %d", runs, k, got, want)
			}
			if got < len(part) && part[got].key == k && got > 0 && part[got-1].key == k {
				t.Fatalf("runs %v: lowerBound(%d) = %d is not the head of its run", runs, k, got)
			}
		}
	}
	ends := []writeEntry{{key: 0}, {key: 0, seq: 1}, {key: ^uint64(0)}, {key: ^uint64(0), seq: 1}}
	for _, k := range []uint64{0, 1, ^uint64(0) - 1, ^uint64(0)} {
		if got, want := lowerBound(ends, k), lowerBoundRef(ends, k); got != want {
			t.Fatalf("extremes: lowerBound(%d) = %d, want %d", k, got, want)
		}
	}
}

// FuzzLowerBound: arbitrary run lengths and key gaps (one byte a run: low
// nibble the gap to the previous key, high nibble the run length) and an
// arbitrary probe against the standard binary search.
func FuzzLowerBound(f *testing.F) {
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x11, 0x31, 0x12}, uint64(2))
	f.Add([]byte{0xf0, 0x1f, 0x2f}, ^uint64(0))
	f.Fuzz(func(t *testing.T, raw []byte, probe uint64) {
		var part []writeEntry
		key := uint64(0)
		for _, b := range raw {
			key += uint64(b & 0xf) // gap 0 extends the previous run
			for v := 0; v <= int(b>>4); v++ {
				part = append(part, writeEntry{key: key, seq: uint64(len(part))})
			}
		}
		for _, k := range []uint64{probe, probe % (key + 2), key} {
			if got, want := lowerBound(part, k), lowerBoundRef(part, k); got != want {
				t.Fatalf("len %d: lowerBound(%d) = %d, want %d", len(part), k, got, want)
			}
		}
	})
}
