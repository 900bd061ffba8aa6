package serve

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzBatchPartition fuzzes both batch partitioners of batch.go — the
// American-flag in-place permutation and the scatter with its index
// column — through checkPartitions: for arbitrary key columns and shard
// counts the key multiset is preserved, the bounds tile [0, n]
// monotonically and agree between the two, every key lands in the
// segment of the shard it hashes to, and the index column is the
// permutation that was applied. The seed corpus covers the
// regression-prone shapes: duplicates, already-sorted input,
// single-shard, and empty.
func FuzzBatchPartition(f *testing.F) {
	enc := func(keys ...uint64) []byte {
		b := make([]byte, 8*len(keys))
		for i, k := range keys {
			binary.LittleEndian.PutUint64(b[8*i:], k)
		}
		return b
	}
	f.Add(enc(), uint8(1))                                   // empty, one shard
	f.Add(enc(5), uint8(4))                                  // single key
	f.Add(enc(7, 7, 7, 7, 7), uint8(3))                      // all duplicates
	f.Add(enc(1, 2, 3, 4, 5, 6, 7, 8), uint8(4))             // already sorted
	f.Add(enc(8, 7, 6, 5, 4, 3, 2, 1), uint8(2))             // reverse sorted
	f.Add(enc(0, 1<<63, 42, 42, 0, ^uint64(0)), uint8(7))    // extremes + dups
	f.Add(enc(3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1), uint8(5)) // alternating dups
	f.Fuzz(func(t *testing.T, data []byte, nshRaw uint8) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		checkPartitions(t, keys, int(nshRaw%16)+1)
	})
}

// FuzzOpBatchPartition fuzzes the op-column grouping behind ApplyBatch
// and the sealed point batches, groupByShard: for arbitrary op columns
// and shard counts the column itself is left untouched, perm is a
// permutation of its indices, the bounds tile [0, n] monotonically and
// agree with the key column's partition of the same keys, every op lands
// in the segment of the shard its key hashes to, and within each segment
// the ops keep submission order — the property that makes the last
// submitted write to a key the one that stays, and that the in-place
// cycle swap of partitionByShard does not have.
func FuzzOpBatchPartition(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 1, 1}, uint8(3))
	f.Add([]byte{9, 9, 9, 9}, uint8(1))
	f.Add([]byte{}, uint8(5))
	f.Add([]byte{1, 1, 2, 2, 3, 3, 4, 4, 1, 5, 2, 6, 3, 7, 4, 8, 5, 9, 6, 10}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, nshRaw uint8) {
		nsh := int(nshRaw%8) + 1
		n := len(data) / 2
		ops := make([]Op, n)
		keys := make([]uint64, n)
		for i := range ops {
			ops[i] = Op{Kind: OpInsert, Key: uint64(data[2*i]), Val: uint32(data[2*i+1])}
			if data[2*i+1]%3 == 0 {
				ops[i].Kind = OpDelete
			}
			keys[i] = ops[i].Key
		}
		orig := slices.Clone(ops)
		perm := make([]uint32, n)
		bounds := groupByShard(ops, perm, nsh)
		if !slices.Equal(ops, orig) {
			t.Fatalf("nsh=%d n=%d: the op column was reordered", nsh, n)
		}
		if want := partitionByShard(keys, nsh, func(k uint64) uint64 { return k }); !slices.Equal(bounds, want) {
			t.Fatalf("nsh=%d n=%d: bounds %v, key partition %v", nsh, n, bounds, want)
		}
		seen := make([]bool, n)
		for _, i := range perm {
			if int(i) >= n || seen[i] {
				t.Fatalf("nsh=%d n=%d: perm %v is not a permutation of 0..%d", nsh, n, perm, n-1)
			}
			seen[i] = true
		}
		for sh := 0; sh < nsh; sh++ {
			if bounds[sh+1] < bounds[sh] {
				t.Fatalf("nsh=%d n=%d: bounds %v not monotone", nsh, n, bounds)
			}
			seg := perm[bounds[sh]:bounds[sh+1]]
			for _, i := range seg {
				if got := shardOf(ops[i].Key, nsh); got != sh {
					t.Fatalf("nsh=%d: op %d key %d in segment %d, hashes to %d", nsh, i, ops[i].Key, sh, got)
				}
			}
			if !slices.IsSorted(seg) {
				t.Fatalf("nsh=%d n=%d: segment %d not in submission order: %v", nsh, n, sh, seg)
			}
		}
	})
}
