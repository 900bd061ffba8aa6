// Package nativejoin ports the hash-join probe of the paper's Section 6
// from the simulated hierarchy (internal/hashjoin) onto this machine's
// real memory: a bucket-chained hash table over plain slices with
// sequential, AMAC, and frame-coroutine interleaved probe kernels. As in
// internal/native, Go's missing software-prefetch intrinsic is stood in
// for by an early load — each dependent pointer dereference is issued
// into per-stream state one scheduler round before it is consumed, so an
// out-of-order core overlaps the group's misses.
//
// Probe chains diverge per key (multiplicity and collisions decide the
// chain length), which is the decoupled-control-flow case that static
// interleaving (GP) cannot express and the reason the optimal group size
// differs from binary search — the paper's robustness point, and what
// internal/serve's per-shard controller tunes online.
//
// A probe walks its entire chain and aggregates over every matching
// build tuple (match count and payload sum), so present keys exercise
// long chains just as misses do — the shape of a join+aggregate rather
// than a first-match point lookup.
package nativejoin

import "repro/internal/coro"

// node is one build-side tuple in the chain arena: 16 bytes, a quarter
// cache line, matching internal/hashjoin's simulated layout. next is
// nodeIndex+1 with 0 terminating the chain.
type node struct {
	key  uint64
	val  uint32
	next uint32
}

// Table is a bucket-chained hash table over real memory. Build it with
// Insert (single-threaded); probes are read-only and may run from many
// goroutines concurrently once the build is complete.
type Table struct {
	buckets []uint32 // head nodeIndex+1 per bucket, 0 = empty
	nodes   []node
	mask    uint64
}

// New creates a table sized for capacity entries at a load factor around
// one (buckets are the next power of two ≥ capacity).
func New(capacity int) *Table {
	nBuckets := 1
	for nBuckets < capacity {
		nBuckets <<= 1
	}
	return &Table{
		buckets: make([]uint32, nBuckets),
		nodes:   make([]node, 0, capacity),
		mask:    uint64(nBuckets - 1),
	}
}

// hash is a Fibonacci multiply-shift, as in internal/hashjoin.
func (t *Table) hash(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> 32 & t.mask
}

// Len returns the number of build tuples inserted.
func (t *Table) Len() int { return len(t.nodes) }

// Insert adds key → val. Duplicate keys prepend to the chain, as on a
// join build side; chain length is multiplicity plus bucket collisions.
func (t *Table) Insert(key uint64, val uint32) {
	b := t.hash(key)
	t.nodes = append(t.nodes, node{key: key, val: val, next: t.buckets[b]})
	t.buckets[b] = uint32(len(t.nodes))
}

// Result aggregates one probe over every matching build tuple.
type Result struct {
	// Hits is the number of build tuples whose key matched.
	Hits uint32
	// Agg is the sum of the matching tuples' payloads.
	Agg uint64
}

// Found reports whether the probe matched at least one build tuple.
func (r Result) Found() bool { return r.Hits > 0 }

// Probe walks key's chain sequentially.
//
//isi:hotpath
func (t *Table) Probe(key uint64) Result {
	var r Result
	next := t.buckets[t.hash(key)]
	for next != 0 {
		n := &t.nodes[next-1]
		if n.key == key {
			r.Hits++
			r.Agg += uint64(n.val)
		}
		next = n.next
	}
	return r
}

// ProbeEach walks key's chain sequentially, emitting every matching
// build tuple's payload in chain order (most recently inserted first)
// in addition to the aggregate — the sequential reference for streaming
// join-match emission (the interleaved counterpart is Cursor.Matched).
func (t *Table) ProbeEach(key uint64, emit func(payload uint32)) Result {
	var r Result
	next := t.buckets[t.hash(key)]
	for next != 0 {
		n := &t.nodes[next-1]
		if n.key == key {
			r.Hits++
			r.Agg += uint64(n.val)
			emit(n.val)
		}
		next = n.next
	}
	return r
}

// RunSequential probes all keys one after the other.
func (t *Table) RunSequential(keys []uint64, out []Result) {
	for i, k := range keys {
		out[i] = t.Probe(k)
	}
}

// Cursor is the resumable probe state machine, exposed so another
// hand-written coroutine frame (internal/serve's stage-2 probeFrame,
// which adds the match sink) can embed the chain walk.
// Start issues the bucket-head early load; each Step consumes what the
// previous round loaded and issues the next chain-node load. The caller
// suspends between Start/Step calls so the loads overlap across the
// interleaving group.
type Cursor struct {
	key    uint64
	res    Result
	n      node   // early-loaded chain node, consumed on the next Step
	next   uint32 // early-loaded head (before the first node load lands)
	loaded bool
	mHit   bool   // the most recent Step consumed a matching node
	mVal   uint32 // that node's payload
}

// Start begins a probe for key: it performs the bucket-head load (the
// first potential miss) and returns a cursor to step after suspending.
//
//isi:hotpath
func (t *Table) Start(key uint64) Cursor {
	return Cursor{key: key, next: t.buckets[t.hash(key)]} // early load
}

// Step advances the probe by one dependent memory access: it consumes
// the early-loaded value from the previous round and issues the next
// load. done=true delivers the final Result; the caller suspends after
// every done=false return.
//
//isi:hotpath
func (c *Cursor) Step(t *Table) (Result, bool) {
	c.mHit = false
	if !c.loaded {
		if c.next == 0 {
			return c.res, true // empty bucket
		}
		c.n = t.nodes[c.next-1] // early load of the first chain node
		c.loaded = true
		return c.res, false
	}
	if c.n.key == c.key {
		c.res.Hits++
		c.res.Agg += uint64(c.n.val)
		c.mHit, c.mVal = true, c.n.val
	}
	c.next = c.n.next
	if c.next == 0 {
		return c.res, true
	}
	c.n = t.nodes[c.next-1] // early load of the next chain node
	return c.res, false
}

// Matched reports whether the most recent Step consumed a matching
// build tuple and, if so, that tuple's payload. Polling it after every
// Step yields each match exactly once, in chain order — streaming
// match emission without a per-probe callback, so an embedding frame
// (internal/serve's probeFrame) can forward matches with no closure
// allocation.
//
//isi:hotpath
func (c *Cursor) Matched() (uint32, bool) { return c.mVal, c.mHit }

// frameProbe is the flat coroutine frame for one probe (the hand-spilled
// state a C++ compiler would generate — see internal/native's
// frameLookup for the rationale).
type frameProbe struct {
	t       *Table
	cur     Cursor
	key     uint64
	started bool
}

//isi:hotpath
func (f *frameProbe) step() (Result, bool) {
	if !f.started {
		f.cur = f.t.Start(f.key)
		f.started = true
		return Result{}, false // suspend while the head load is in flight
	}
	return f.cur.Step(f.t)
}

// ProbeFrame builds the frame-backed probe coroutine handle.
func (t *Table) ProbeFrame(key uint64) *coro.Frame[Result] {
	f := &frameProbe{t: t, key: key}
	return coro.NewFrame(f.step)
}

// RunCoro interleaves the probes with frame coroutines under the
// Listing 7 scheduler.
func (t *Table) RunCoro(keys []uint64, group int, out []Result) {
	coro.RunInterleaved(len(keys), group,
		func(i int) coro.Handle[Result] { return t.ProbeFrame(keys[i]) },
		func(i int, r Result) { out[i] = r })
}

// RunCoroReuse interleaves the probes with frame coroutines recycled per
// scheduler slot: one frame struct and one handle per slot, reset in
// place for each probe. Probe chains are short (a handful of suspension
// rounds), so the per-probe allocations of RunCoro — frame struct,
// bound method value, handle — rival the interleaving gain; recycling
// removes them. internal/serve used to drain through this shape; its
// drains now hold the frames by value under coro.DrainFlat, and this
// stays as the Handle-scheduler data point next to RunCoro and RunAMAC.
func (t *Table) RunCoroReuse(keys []uint64, group int, out []Result) {
	pool := coro.NewSlotPool(func(f *frameProbe) func() (Result, bool) { return f.step })
	coro.RunInterleavedSlots(len(keys), group,
		func(slot, i int) coro.Handle[Result] {
			f, h := pool.Slot(slot)
			*f = frameProbe{t: t, key: keys[i]}
			return h
		},
		func(i int, r Result) { out[i] = r })
}

// amacState is the AMAC state-buffer entry: the early-loaded node
// travels inside the embedded Cursor from the issue round to the
// consume round.
type amacState struct {
	cur   Cursor
	owner int
	stage uint8 // 0 = claim input, 1 = walk, 2 = done
}

// RunAMAC interleaves the probes with an explicit state machine over the
// same Cursor walk the coroutines use.
func (t *Table) RunAMAC(keys []uint64, group int, out []Result) {
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
					st.stage = 2
					notDone--
					continue
				}
				st.owner = next
				st.cur = t.Start(keys[next])
				next++
				st.stage = 1
			case 1:
				if r, done := st.cur.Step(t); done {
					out[st.owner] = r
					st.stage = 0
				}
			}
		}
	}
}
