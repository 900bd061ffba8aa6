package serve

import (
	"unsafe"

	"repro/internal/native"
)

// This file is a shard's column memory. A shard owns the memory of its
// key and code columns: New allocates the first set, every merge writes
// into a set the shard recycles, and Close frees what is left. Columns of
// one huge page or more are anonymous mappings outside the Go heap
// (colmem_linux.go), so they neither count toward the heap goal nor wait
// for a collection to be returned, and they are backed by transparent
// huge pages where the kernel allows it. Smaller columns — and every
// column off Linux and in -race builds, where the race detector cannot
// see mapped memory — stay on the heap.

// hugePage is the size of one transparent huge page: a column of at least
// this many bytes is mapped, its length rounded up to whole huge pages.
const hugePage = 2 << 20

// colSet is one set of a shard's column memory: a key column, its code
// column and the key column's page sample, each with capacity for the
// longest column an epoch over the set may hold. An epoch's index views a
// prefix of its set.
//
// The rule that makes recycling safe: only the owning shard's goroutine
// reads or writes a set's elements. Drains and merges run there, Stats
// reads gauges only, and sh.epoch is loaded only in epoch.go. So a set
// that reclaim has dropped becomes the next merge's output with no reader
// left to race the writes, and a mapped column is unmapped only where no
// reader can run: in Close after the shard goroutine has exited, or on
// that goroutine when a larger set replaces it as the spare. Never from
// a finalizer or cleanup.
type colSet struct {
	keys  []uint64
	codes []uint32
	top   []uint64
	// keysMapped and codesMapped report a column that is a mapping of its
	// own (mapColumn), exactly its capacity long, not a heap slice.
	keysMapped, codesMapped bool
}

// newColSet allocates a set with capacity for at least n keys.
func newColSet(n int) colSet {
	var c colSet
	c.keys, c.keysMapped = allocColumn[uint64](n)
	c.codes, c.codesMapped = allocColumn[uint32](n)
	// A mapped column rounds up to whole huge pages: the sample covers
	// what both columns can hold, so that rounding is headroom too.
	c.top = make([]uint64, 0, native.SampleLen(min(cap(c.keys), cap(c.codes))))
	return c
}

// holds reports whether the set has room for a merge bounded by m.
func (c *colSet) holds(m int) bool {
	return cap(c.keys) >= m && cap(c.codes) >= m && cap(c.top) >= native.SampleLen(m)
}

// bytes is the key and code memory the set holds.
func (c *colSet) bytes() int64 { return int64(cap(c.keys))*8 + int64(cap(c.codes))*4 }

// free unmaps the set's mapped columns and drops its heap ones, leaving
// the zero set. Any view of the set is invalid afterwards.
func (c *colSet) free() {
	if c.keysMapped {
		unmapColumn(columnMemory(c.keys))
	}
	if c.codesMapped {
		unmapColumn(columnMemory(c.codes))
	}
	*c = colSet{}
}

// allocColumn returns an empty column with capacity for at least n
// elements and whether it is mapped: mapped when its bytes fill a huge
// page (mapColumn), on the heap otherwise.
func allocColumn[T uint32 | uint64](n int) ([]T, bool) {
	size := int(unsafe.Sizeof(T(0)))
	if m := mapColumn(n * size); m != nil {
		return unsafe.Slice((*T)(unsafe.Pointer(&m[0])), len(m)/size)[:0], true
	}
	return make([]T, 0, n), false
}

// columnMemory is the memory of a column's whole capacity: for a mapped
// column, its mapping.
func columnMemory[T uint32 | uint64](col []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(col))), cap(col)*int(unsafe.Sizeof(T(0))))
}
