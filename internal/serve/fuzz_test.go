package serve

import (
	"encoding/binary"
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

// FuzzOpBatchPartition is the same fuzz over the Op-column instantiation
// ApplyBatch uses: routing must agree with the key column's for equal
// keys, and the (key, val, kind) triples must travel together.
func FuzzOpBatchPartition(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 1, 1}, uint8(3))
	f.Add([]byte{9, 9, 9, 9}, uint8(1))
	f.Add([]byte{}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, nshRaw uint8) {
		nsh := int(nshRaw%8) + 1
		n := len(data) / 2
		ops := make([]Op, n)
		type sig struct {
			key  uint64
			val  uint32
			kind OpKind
		}
		freq := map[sig]int{}
		for i := 0; i < n; i++ {
			ops[i] = Op{Kind: OpInsert, Key: uint64(data[2*i]), Val: uint32(data[2*i+1])}
			if data[2*i+1]%3 == 0 {
				ops[i].Kind = OpDelete
			}
			freq[sig{ops[i].Key, ops[i].Val, ops[i].Kind}]++
		}
		bounds := partitionByShard(ops, nsh, func(o Op) uint64 { return o.Key })
		if len(bounds) != nsh+1 || bounds[0] != 0 || bounds[nsh] != n {
			t.Fatalf("nsh=%d n=%d: bounds %v do not tile", nsh, n, bounds)
		}
		for sh := 0; sh < nsh; sh++ {
			for i := bounds[sh]; i < bounds[sh+1]; i++ {
				if got := shardOf(ops[i].Key, nsh); got != sh {
					t.Fatalf("nsh=%d: ops[%d] key %d in segment %d, hashes to %d",
						nsh, i, ops[i].Key, sh, got)
				}
				freq[sig{ops[i].Key, ops[i].Val, ops[i].Kind}]--
			}
		}
		for s, c := range freq {
			if c != 0 {
				t.Fatalf("nsh=%d: op %+v count off by %d after permutation", nsh, s, c)
			}
		}
	})
}
