// Package native contains non-simulated implementations that run on this
// machine's real memory hierarchy. Go has no software-prefetch intrinsic
// (the repro gap the calibration band flags), so the interleaved variants
// issue the probing load *early* — into per-stream state, consumed one
// scheduler round later — which an out-of-order core overlaps across the
// group exactly like a prefetch. The package quantifies two things on
// real silicon:
//
//   - interleaving works in pure Go: GP/AMAC/frame-coroutine batched
//     searches beat the sequential baseline once the array outsizes the
//     LLC (BenchmarkNative*);
//   - stackful coroutines are too heavy for this purpose: the
//     goroutine+channel backend's switch costs orders of magnitude more
//     than a frame resume, and iter.Pull sits in between (the
//     coroutine-backend ablation).
package native

import (
	"math/bits"

	"repro/internal/coro"
)

// advance is the one compare-and-advance every search kernel of this
// package shares: low+half when v ≤ key, else low, without a jump. The
// borrow of key-v is 1 exactly when key < v, so -borrow masks the step
// back out of the speculated low+half; bits.Sub64 is an intrinsic and the
// whole thing is SUB/SBB/AND/SUB on amd64 (adding half&(borrow-1) instead
// is two instructions longer on the load-to-load dependency chain). The
// obvious `if v <= key { low = probe }` compiles to a conditional jump —
// Go declines a CMOV whose result feeds a load address (golang/go#26306)
// — and a mispredicted jump on a just-arrived line flushes the window of
// overlapped loads the interleaving group exists to fill.
//
//isi:hotpath
func advance(low, half int, v, key uint64) int {
	_, borrow := bits.Sub64(key, v, 0)
	return low + half - half&-int(borrow)
}

// Baseline is the sequential binary search over a real slice: the largest
// index with table[idx] ≤ key, or 0 (Listing 2 semantics). Like the
// paper's Baseline it does not speculate on the comparison (advance): the
// only jumps are the loop exit and the bounds check, neither on the
// loaded value — so beyond the LLC it also forgoes the accidental
// prefetching a predicted branch performs.
//
//isi:hotpath
func Baseline(table []uint64, key uint64) int {
	size := len(table)
	low := 0
	for half := size / 2; half > 0; half = size / 2 {
		low = advance(low, half, table[low+half], key)
		size -= half
	}
	return low
}

// RunSequential performs the lookups one after the other.
func RunSequential(table []uint64, keys []uint64, out []int) {
	for i, k := range keys {
		out[i] = Baseline(table, k)
	}
}

// RunGP is group prefetching on real memory, the level-synchronous
// (lockstep) form: every stream of the group takes the same level in one
// shared loop. The streams' loads are independent and no jump separates
// them (advance), so the core overlaps the group's G misses without a
// separate prefetch stage.
func RunGP(table []uint64, keys []uint64, group int, out []int) {
	if group < 1 {
		group = 1
	}
	lows := make([]int, group)
	for g0 := 0; g0 < len(keys); g0 += group {
		gk := keys[g0:min(g0+group, len(keys))]
		clear(lows)
		size := len(table)
		for half := size / 2; half > 0; half = size / 2 {
			for s, k := range gk {
				lows[s] = advance(lows[s], half, table[lows[s]+half], k)
			}
			size -= half
		}
		copy(out[g0:], lows[:len(gk)])
	}
}

// amacState is the AMAC state-buffer entry: the early-loaded probe value
// travels in val from the issue stage to the consume stage.
type amacState struct {
	key   uint64
	val   uint64
	low   int
	size  int
	half  int
	owner int
	stage uint8 // 0 = claim input, 1 = issue, 2 = consume, 3 = done
}

// RunAMAC is asynchronous memory access chaining on real memory.
func RunAMAC(table []uint64, keys []uint64, group int, out []int) {
	if group < 1 {
		group = 1
	}
	if group > len(keys) {
		group = len(keys)
	}
	if len(keys) == 0 {
		return
	}
	states := make([]amacState, group)
	next := 0
	notDone := group
	for notDone > 0 {
		for s := range states {
			st := &states[s]
			switch st.stage {
			case 0:
				if next >= len(keys) {
					st.stage = 3
					notDone--
					continue
				}
				st.key = keys[next]
				st.owner = next
				st.low = 0
				st.size = len(table)
				next++
				st.stage = 1
			case 1:
				if half := st.size / 2; half > 0 {
					st.half = half
					st.val = table[st.low+half] // early load, consumed next visit
					st.size -= half
					st.stage = 2
				} else {
					out[st.owner] = st.low
					st.stage = 0
				}
			case 2:
				st.low = advance(st.low, st.half, st.val, st.key)
				st.stage = 1
			}
		}
	}
}

// SearchCursor is the hand-written stackless coroutine frame (the
// paper's CORO-S data point): all live state sits in one flat struct —
// what the C++ compiler spills to its coroutine frame — so a resume is a
// single method call with no per-variable boxing. (A closure capturing
// mutable locals would box each of them and allocate per lookup,
// overheads large enough to cancel the interleaving gain on real
// hardware.) It is exported so other frames can embed the search
// (RangeCursor does) and internal/serve's drains can hold it by value in
// their scheduler slots; the caller suspends after every done=false Step.
//
//loc:begin coro-frame-native
type SearchCursor struct {
	table []uint64
	key   uint64
	val   uint64 // early-loaded table[low+half], consumed on the next resume
	low   int
	size  int
	half  int
}

// StartSearch begins a Baseline search for key over the sorted table.
// half starts at 0, so the first resume's consume adds nothing whatever
// val holds — no "nothing loaded yet" flag to test.
//
//isi:hotpath
func StartSearch(table []uint64, key uint64) SearchCursor {
	return SearchCursor{table: table, key: key, size: len(table)}
}

// Step advances by one early-load round: it consumes the probe value
// loaded on the previous round (advance, no jump on it) and issues the
// next one. The one data-independent branch left is the exit on an
// exhausted size, taken once per search. done=true delivers the final
// index (Listing 2 semantics, as Baseline).
//
//isi:hotpath
func (c *SearchCursor) Step() (int, bool) {
	c.low = advance(c.low, c.half, c.val, c.key)
	half := c.size / 2
	if half == 0 {
		return c.low, true
	}
	c.val = c.table[c.low+half] // early load
	c.half = half
	c.size -= half
	return 0, false
}

// CoroFrameLookup builds the frame-backed coroutine handle.
func CoroFrameLookup(table []uint64, key uint64) *coro.Frame[int] {
	f := StartSearch(table, key)
	return coro.NewFrame(f.Step)
}

//loc:end coro-frame-native

// CoroPullLookup is the straight-line coroutine over iter.Pull runtime
// coroutines — the ergonomic equivalent of the paper's CORO-U on real
// memory.
func CoroPullLookup(table []uint64, key uint64) *coro.Pull[int] {
	return coro.NewPull(func(suspend func()) int {
		low := 0
		size := len(table)
		for half := size / 2; half > 0; half = size / 2 {
			val := table[low+half] // early load
			suspend()
			low = advance(low, half, val, key)
			size -= half
		}
		return low
	})
}

// GoroLookup is the stackful (goroutine+channel) coroutine — the
// construct the paper rules out for its switch cost.
func GoroLookup(table []uint64, key uint64) *coro.Goro[int] {
	return coro.NewGoro(func(suspend func()) int {
		low := 0
		size := len(table)
		for half := size / 2; half > 0; half = size / 2 {
			val := table[low+half]
			suspend()
			low = advance(low, half, val, key)
			size -= half
		}
		return low
	})
}

// RunFrameDirect drives the same coroutine frames without the generic
// Handle scheduler: the frames live in a flat slice and resume through a
// direct (devirtualizable) method call. Comparing this against
// "coro/frame" isolates what the interface-based scheduling costs — the
// indirection a C++ compiler eliminates when it lowers coroutines.
func RunFrameDirect(table []uint64, keys []uint64, group int, out []int) {
	if group < 1 {
		group = 1
	}
	if group > len(keys) {
		group = len(keys)
	}
	if len(keys) == 0 {
		return
	}
	frames := make([]SearchCursor, group)
	owner := make([]int, group)
	done := make([]bool, group)
	for i := 0; i < group; i++ {
		frames[i] = StartSearch(table, keys[i])
		owner[i] = i
	}
	next := group
	notDone := group
	for notDone > 0 {
		for s := range frames {
			if done[s] {
				continue
			}
			r, fin := frames[s].Step()
			if !fin {
				continue
			}
			out[owner[s]] = r
			if next < len(keys) {
				frames[s] = StartSearch(table, keys[next])
				owner[s] = next
				next++
			} else {
				done[s] = true
				notDone--
			}
		}
	}
}

// Backend selects the coroutine implementation for RunCoro.
type Backend int

// The three coroutine backends.
const (
	Frame Backend = iota
	Pull
	Goroutine
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case Frame:
		return "frame"
	case Pull:
		return "iter.Pull"
	case Goroutine:
		return "goroutine"
	}
	return "unknown"
}

// RunCoro interleaves the lookups with the chosen coroutine backend under
// the Listing 7 scheduler.
func RunCoro(table []uint64, keys []uint64, group int, out []int, backend Backend) {
	start := func(i int) coro.Handle[int] {
		switch backend {
		case Pull:
			return CoroPullLookup(table, keys[i])
		case Goroutine:
			return GoroLookup(table, keys[i])
		default:
			return CoroFrameLookup(table, keys[i])
		}
	}
	coro.RunInterleaved(len(keys), group, start, func(i, r int) { out[i] = r })
}
