package native

// This file is the range-scan kernel on real memory: the third canonical
// index-join shape next to point lookups and hash probes. A range query
// [lo, hi] splits into a *seek* — a lower-bound binary search, whose
// dependent cache misses are exactly the suspension-heavy access pattern
// the paper interleaves — and a *scan*, a sequential walk of the sorted
// column that the hardware prefetcher already covers. RangeCursor
// therefore suspends on every seek round (so a group of concurrent range
// queries overlaps their seek misses like a group of binary searches)
// and performs the whole bounded scan in its final resume, where
// interleaving could only break the sequential access pattern.

// Pair is one emitted range entry: a key from the sorted column and its
// parallel-array code.
type Pair struct {
	Key  uint64
	Code uint32
}

// scanBounded is the shared scan tail of both range kernels: low is the
// Baseline seek result for lo (the largest position with key ≤ lo, or
// 0), fixed up to the true lower bound, then a forward scan appending
// every (key, code) pair with key ≤ hi to out, stopping after limit
// entries when limit > 0. Returns the number of entries emitted. The
// caller guarantees a non-empty table and lo ≤ hi.
//
//isi:hotpath
func scanBounded(table []uint64, codes []uint32, low int, lo, hi uint64, limit int, out *[]Pair) int {
	start := low
	if table[start] < lo {
		start++
	}
	n := 0
	for i := start; i < len(table); i++ {
		if table[i] > hi {
			break
		}
		*out = append(*out, Pair{Key: table[i], Code: codes[i]}) //isi:allow-alloc(emits into the caller-owned scratch buffer, whose growth amortizes across batches)
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	return n
}

// RangeSeekScan is the sequential baseline: lower-bound seek via the
// Baseline search (no jump on a loaded value: advance), then the bounded
// forward scan, whose two exits are ordinary predicted branches. It
// returns the number of entries emitted.
func RangeSeekScan(table []uint64, codes []uint32, lo, hi uint64, limit int, out *[]Pair) int {
	if len(table) == 0 || lo > hi {
		return 0
	}
	return scanBounded(table, codes, Baseline(table, lo), lo, hi, limit, out)
}

// RangeCursor is the interleaved range-scan coroutine frame (flat state,
// as SearchCursor — see its comment for why closures won't do). The seek
// stage embeds SearchCursor by value and suspends once per early-load
// round; the final resume runs the sequential scan to completion and
// delivers the emitted entry count. Entries are appended to *out, which
// the caller owns (typically a per-query scratch buffer recycled across
// batches).
type RangeCursor struct {
	table []uint64
	codes []uint32
	lo    uint64
	hi    uint64
	limit int
	out   *[]Pair

	search SearchCursor
}

// StartRangeScan begins an interleaved range scan of [lo, hi] over the
// sorted table with its parallel code column. limit > 0 bounds the
// number of emitted entries; limit <= 0 scans to the end of the range.
//
//isi:hotpath
func StartRangeScan(table []uint64, codes []uint32, lo, hi uint64, limit int, out *[]Pair) RangeCursor {
	return RangeCursor{
		table:  table,
		codes:  codes,
		lo:     lo,
		hi:     hi,
		limit:  limit,
		out:    out,
		search: StartSearch(table, lo),
	}
}

// Step advances the cursor: while seeking it behaves exactly like
// SearchCursor.Step (one early-load round per resume, done=false); once
// the seek lands it performs the whole scan and returns (emitted, true).
//
//isi:hotpath
func (c *RangeCursor) Step() (int, bool) {
	low, done := c.search.Step()
	if !done {
		return 0, false
	}
	if len(c.table) == 0 || c.lo > c.hi {
		return 0, true
	}
	return scanBounded(c.table, c.codes, low, c.lo, c.hi, c.limit, c.out), true
}
