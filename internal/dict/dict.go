// Package dict implements the two dictionary representations of SAP
// HANA's column store (paper Section 2.1):
//
//   - Main: a sorted array of the domain values, array positions are the
//     codes — extract is an array lookup, locate is a binary search;
//   - Delta: an unsorted, append-ordered value array indexed by a
//     CSB+-tree whose leaves hold codes (Section 5.5) — extract is an
//     array lookup, locate is a tree lookup whose leaf comparisons
//     dereference the value array.
//
// Both support sequential and interleaved (coroutine) bulk locate — the
// index-join building block of IN-predicate queries.
package dict

import (
	"sort"

	"repro/internal/csbtree"
	"repro/internal/memsim"
	"repro/internal/search"
)

// NotFound is the code returned by locate for absent values ("a special
// code that denotes absence", Section 2.1).
const NotFound = ^uint32(0)

// Dictionary is the common access interface of the dictionary
// representations, generic over the value domain: Main and Delta encode
// INTEGER columns (V = uint64), MainStr encodes 15-character string
// columns (V = memsim.StrVal) like the zip codes of the paper's
// Listing 1.
type Dictionary[V any] interface {
	// Len returns the number of distinct values.
	Len() int
	// Bytes returns the simulated footprint of the value array (the
	// "dictionary size" axis of Figures 1 and 8).
	Bytes() int
	// Extract returns the value for code (charged array lookup).
	Extract(e *memsim.Engine, code uint32) V
	// Locate returns the code for value, or NotFound (charged lookup).
	Locate(e *memsim.Engine, value V) uint32
	// LocateAll performs sequential bulk locate.
	LocateAll(e *memsim.Engine, values []V, out []uint32)
	// LocateAllInterleaved performs coroutine-interleaved bulk locate with
	// the given group size.
	LocateAllInterleaved(e *memsim.Engine, values []V, group int, out []uint32)
}

// Main is the read-optimized dictionary: a sorted INTEGER array.
type Main struct {
	arr   *memsim.IntArray
	costs search.Costs
}

// NewMainVirtual builds a Main dictionary of n 4-byte INTEGER values
// computed by val (monotone increasing), costing no host memory — used
// for the paper-scale sweeps.
func NewMainVirtual(e *memsim.Engine, n int, val func(i int) uint64) *Main {
	return &Main{
		arr:   memsim.NewVirtualIntArray(e, n, 4, val),
		costs: search.DefaultCosts(),
	}
}

// NewMain builds a Main dictionary from sorted distinct values.
func NewMain(e *memsim.Engine, values []uint64) *Main {
	for i := 1; i < len(values); i++ {
		if values[i] <= values[i-1] {
			panic("dict: Main values must be sorted and distinct")
		}
	}
	return &Main{
		arr:   memsim.NewBackedIntArray(e, values, 4),
		costs: search.DefaultCosts(),
	}
}

// Len returns the number of values.
func (m *Main) Len() int { return m.arr.Len() }

// Bytes returns the simulated dictionary size.
func (m *Main) Bytes() int { return m.arr.Bytes() }

// Extract returns the value at code (one charged array access).
func (m *Main) Extract(e *memsim.Engine, code uint32) uint64 {
	v, _ := m.arr.Read(e, int(code))
	return v
}

// table returns the search adapter.
func (m *Main) table() search.IntTable { return search.IntTable{A: m.arr} }

// locatePos converts the shared search-loop result into a code.
func (m *Main) locatePos(low int, value uint64) uint32 {
	if m.arr.Len() > 0 && m.arr.At(low) == value {
		return uint32(low)
	}
	return NotFound
}

// Locate binary-searches for value. The sequential implementation is the
// speculative search (Main's locate shows the bad-speculation profile of
// Table 2).
func (m *Main) Locate(e *memsim.Engine, value uint64) uint32 {
	if m.arr.Len() == 0 {
		return NotFound
	}
	return m.locatePos(search.Std[uint64](e, m.costs, m.table(), value), value)
}

// LocateAll performs the sequential index join S ⋈ D.
func (m *Main) LocateAll(e *memsim.Engine, values []uint64, out []uint32) {
	for i, v := range values {
		out[i] = m.Locate(e, v)
	}
}

// LocateAllInterleaved hides the binary search's cache misses with
// coroutine interleaving (Section 5.5, "Main-Interleaved").
func (m *Main) LocateAllInterleaved(e *memsim.Engine, values []uint64, group int, out []uint32) {
	if m.arr.Len() == 0 {
		for i := range values {
			out[i] = NotFound
		}
		return
	}
	lows := make([]int, len(values))
	search.RunCORO[uint64](e, m.costs, m.table(), values, group, lows)
	for i, low := range lows {
		out[i] = m.locatePos(low, values[i])
	}
}

// Delta is the update-friendly dictionary: an unsorted value array plus a
// CSB+-tree index with code leaves.
type Delta struct {
	values []uint64
	arr    *memsim.IntArray
	tree   *csbtree.Tree
	costs  csbtree.Costs
}

// NewDelta creates an empty Delta dictionary with fixed capacity (the
// value array must not reallocate: the tree holds codes into it).
func NewDelta(e *memsim.Engine, capacity int) *Delta {
	d := &Delta{values: make([]uint64, 0, capacity)}
	d.arr = memsim.NewVirtualIntArray(e, capacity, 4, func(i int) uint64 { return d.values[i] })
	d.tree = csbtree.New(e, csbtree.CodeLeaves, capacity, d.arr)
	d.costs = csbtree.DefaultCosts()
	return d
}

// BulkDelta builds a Delta dictionary from distinct values in append
// (code) order, bulk-loading the tree instead of inserting one by one.
func BulkDelta(e *memsim.Engine, values []uint64) *Delta {
	d := &Delta{values: values}
	d.arr = memsim.NewVirtualIntArray(e, len(values), 4, func(i int) uint64 { return d.values[i] })

	type kv struct {
		key  uint32
		code uint32
	}
	pairs := make([]kv, len(values))
	for i, v := range values {
		pairs[i] = kv{uint32(v), uint32(i)}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })
	keys := make([]uint32, len(pairs))
	codes := make([]uint32, len(pairs))
	for i, p := range pairs {
		keys[i] = p.key
		codes[i] = p.code
	}
	d.tree = csbtree.BulkLoad(e, csbtree.CodeLeaves, keys, codes, d.arr)
	d.costs = csbtree.DefaultCosts()
	return d
}

// Insert appends value (if new) and indexes it, returning its code and
// whether it was added. Host-time: Delta maintenance is not a measured
// region.
func (d *Delta) Insert(value uint64) (uint32, bool) {
	if len(d.values) == cap(d.values) {
		panic("dict: Delta capacity exhausted")
	}
	code := uint32(len(d.values))
	d.values = append(d.values, value)
	if !d.tree.Insert(uint32(value), code) {
		// Already present: roll back the append.
		d.values = d.values[:len(d.values)-1]
		// Find the existing code (host time).
		for i, v := range d.values {
			if v == value {
				return uint32(i), false
			}
		}
	}
	return code, true
}

// Len returns the number of values.
func (d *Delta) Len() int { return len(d.values) }

// Bytes returns the simulated footprint of the value array.
func (d *Delta) Bytes() int { return len(d.values) * 4 }

// Tree exposes the index (for experiments inspecting height etc.).
func (d *Delta) Tree() *csbtree.Tree { return d.tree }

// Extract returns the value at code (one charged array access).
func (d *Delta) Extract(e *memsim.Engine, code uint32) uint64 {
	v, _ := d.arr.Read(e, int(code))
	return v
}

// Locate looks value up in the CSB+-tree.
func (d *Delta) Locate(e *memsim.Engine, value uint64) uint32 {
	r, ok := d.tree.Lookup(e, d.costs, uint32(value))
	if !ok {
		return NotFound
	}
	return r
}

// LocateAll performs sequential bulk locate.
func (d *Delta) LocateAll(e *memsim.Engine, values []uint64, out []uint32) {
	keys := make([]uint32, len(values))
	for i, v := range values {
		keys[i] = uint32(v)
	}
	res := make([]csbtree.Result, len(values))
	d.tree.RunSequential(e, d.costs, keys, res)
	for i, r := range res {
		out[i] = resultCode(r)
	}
}

// LocateAllInterleaved performs coroutine-interleaved bulk locate
// (Section 5.5, "Delta-Interleaved").
func (d *Delta) LocateAllInterleaved(e *memsim.Engine, values []uint64, group int, out []uint32) {
	keys := make([]uint32, len(values))
	for i, v := range values {
		keys[i] = uint32(v)
	}
	res := make([]csbtree.Result, len(values))
	d.tree.RunCORO(e, d.costs, keys, group, res)
	for i, r := range res {
		out[i] = resultCode(r)
	}
}

func resultCode(r csbtree.Result) uint32 {
	if !r.Found {
		return NotFound
	}
	return r.Value
}

// Compile-time interface checks.
var (
	_ Dictionary[uint64]        = (*Main)(nil)
	_ Dictionary[uint64]        = (*Delta)(nil)
	_ Dictionary[memsim.StrVal] = (*MainStr)(nil)
)
