package serve

import (
	"encoding/binary"
	"testing"
)

// FuzzBatchPartition fuzzes the one column grouping behind every
// admission, groupByShard, through checkGrouping over a key column
// (eight bytes a key). The seed corpus covers the regression-prone
// shapes: duplicates, already-sorted input, single-shard and empty.
func FuzzBatchPartition(f *testing.F) {
	enc := func(keys ...uint64) []byte {
		b := make([]byte, 8*len(keys))
		for i, k := range keys {
			binary.LittleEndian.PutUint64(b[8*i:], k)
		}
		return b
	}
	f.Add(enc(), uint8(1))                                   // empty
	f.Add(enc(5), uint8(4))                                  // single key
	f.Add(enc(7, 7, 7, 7, 7), uint8(3))                      // all duplicates
	f.Add(enc(1, 2, 3, 4, 5, 6, 7, 8), uint8(4))             // already sorted
	f.Add(enc(8, 7, 6, 5, 4, 3, 2, 1), uint8(2))             // reverse sorted
	f.Add(enc(0, 1<<63, 42, 42, 0, ^uint64(0)), uint8(7))    // extremes + dups
	f.Add(enc(3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1), uint8(5)) // alternating dups
	f.Add(enc(9), uint8(0))                                  // one shard
	f.Fuzz(func(t *testing.T, data []byte, nshRaw uint8) {
		keys := make([]uint64, len(data)/8)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		checkGrouping(t, keys, keyRoute, int(nshRaw%16)+1)
	})
}

// FuzzOpBatchPartition fuzzes the same grouping over an op column (two
// bytes an op: key and value, a delete when the value is a multiple of
// three), the column behind ApplyBatch and the sealed point batches;
// the seeds are write columns hitting a few keys many times, where
// keeping submission order within a shard decides which write stays.
func FuzzOpBatchPartition(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0, 1, 1}, uint8(3))
	f.Add([]byte{9, 9, 9, 9}, uint8(1))
	f.Add([]byte{}, uint8(5))
	f.Add([]byte{1, 1, 2, 2, 3, 3, 4, 4, 1, 5, 2, 6, 3, 7, 4, 8, 5, 9, 6, 10}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, nshRaw uint8) {
		ops := make([]Op, len(data)/2)
		for i := range ops {
			ops[i] = Op{Kind: OpInsert, Key: uint64(data[2*i]), Val: uint32(data[2*i+1])}
			if data[2*i+1]%3 == 0 {
				ops[i].Kind = OpDelete
			}
		}
		checkGrouping(t, ops, opRoute, int(nshRaw%8)+1)
	})
}
