package serve

import (
	"time"

	"repro/internal/coro"
	"repro/internal/native"
	"repro/internal/nativejoin"
)

// This file is the join execution path: the service's build side and the
// composite dictionary→probe coroutine it drains join batches through.
//
// A join service (New with WithBuild) gives every shard, next to its
// dictionary partition, a build-side partition: a real-memory
// bucket-chained hash table (internal/nativejoin) keyed by the build
// tuples' *global dictionary codes*. Build tuples are partitioned by the
// same key hash as the dictionary, so the shard that resolves a probe
// key to its code also owns every build tuple with that key — the
// dictionary lookup can pipe its code straight into the hash probe
// without leaving the shard.
//
// One joinFrame is the whole per-key pipeline as a single hand-written
// coroutine frame: probe the shard's write delta (host-side — the delta
// is a small cache-resident buffer, delta.go), then binary-search the
// dictionary partition (early-load interleaving, as internal/native),
// then — within the same drain — walk the hash-table chain for the
// resulting code via nativejoin.Cursor. A delta-resolved key skips the
// search stage and enters the chain walk directly with its delta code;
// on a service whose dictionary mutates, joins stay consistent with
// lookups because both go through the same delta-then-main composite.
// Chains diverge per key, so batch streams fall out of lockstep; the
// round-robin scheduler (coro.DrainFlat) absorbs that, which is exactly
// the decoupled-control-flow case the paper builds coroutines for.

// BuildTuple is one build-side row: a join key from the value domain and
// an opaque payload aggregated by probes.
type BuildTuple struct {
	Key     uint64
	Payload uint32
}

// JoinResult is the outcome of one join probe.
type JoinResult struct {
	// Code is the key's global dictionary code, NotFound if the key is
	// absent from the value domain.
	Code uint32
	// Hits is the number of matching build tuples; Agg the sum of their
	// payloads.
	Hits uint32
	Agg  uint64
	// Dropped marks a probe whose context was cancelled before its shard
	// drained it; the key was never probed.
	Dropped bool
}

// Found reports whether the probe matched at least one build tuple.
func (r JoinResult) Found() bool { return r.Hits > 0 }

// joinOut is the drain-internal result of a composite lookup/join frame.
type joinOut struct {
	code  uint32
	hits  uint32
	agg   uint64
	found bool // key present in the dictionary
}

// joinFrame is the composite coroutine frame: delta probe, dictionary
// binary search, and hash-table chain walk, all live state hand-spilled
// into one flat struct (see internal/native's SearchCursor for why
// closures won't do). One frame per scheduler slot lives by value in the
// shard's coro.FlatSlots — init resets it in place — so a shard drains an
// unbounded request sequence with no per-request allocation.
type joinFrame struct {
	idx  *nativeJoinIndex
	key  uint64
	join bool
	// msink, when non-nil, streams each build-tuple match (payload plus
	// the probe's identity) into the owning batch's per-shard match
	// buffer; probe is the key's index in the partitioned column.
	msink *[]Match
	probe int
	// Dictionary stage: the early-load binary search, embedded by value
	// from internal/native (one state machine, shared with the lookup
	// kernels).
	search native.SearchCursor
	// Probe stage: the chain walk.
	cur     nativejoin.Cursor
	out     joinOut
	walking bool // false = dictionary search, true = chain walk
}

// init resets the frame for one key and reports whether it needs the
// scheduler. The delta probe happens here, at frame start: a key the
// delta resolves outright (a tombstone, or a hit on a plain lookup) and
// any key of an empty partition is answered in f.out and init returns
// false — it never occupies a slot; a delta-resolved join enters the
// chain walk with its delta code, issuing the bucket-head early load
// immediately, like the search stage would have.
//
//isi:hotpath
func (f *joinFrame) init(x *nativeJoinIndex, dv deltaView, key uint64, join bool, msink *[]Match, probe int) bool {
	*f = joinFrame{idx: x, key: key, join: join, msink: msink, probe: probe}
	if !dv.empty() {
		if v, oc := dv.lookup(key); oc != deltaMiss {
			if oc == deltaDel {
				f.out = joinOut{code: NotFound}
				return false
			}
			f.out = joinOut{code: v, found: true}
			if !join {
				return false
			}
			f.cur = x.jt.Start(uint64(v))
			f.walking = true
			return true
		}
	}
	if len(x.table) == 0 {
		f.out = joinOut{code: NotFound}
		return false
	}
	f.search = native.StartSearch(x.table, key)
	return true
}

// Step is the frame's resume (coro.FlatFrame).
//
//isi:hotpath
func (f *joinFrame) Step() (joinOut, bool) {
	if !f.walking {
		low, done := f.search.Step()
		if !done {
			return joinOut{}, false
		}
		if f.idx.table[low] != f.key {
			return joinOut{code: NotFound}, true
		}
		code := f.idx.codes[low]
		f.out = joinOut{code: code, found: true}
		if !f.join {
			return f.out, true
		}
		// Pipe the code into the hash probe within the same drain: Start
		// issues the bucket-head early load, then suspend.
		f.cur = f.idx.jt.Start(uint64(code))
		f.walking = true
		return joinOut{}, false
	}
	r, done := f.cur.Step(f.idx.jt)
	if f.msink != nil {
		if payload, hit := f.cur.Matched(); hit {
			*f.msink = append(*f.msink, Match{Probe: f.probe, Key: f.key, Code: f.out.code, Payload: payload}) //isi:allow-alloc(streams into the batch's per-shard match buffer, whose growth amortizes across batches)
		}
	}
	if !done {
		return joinOut{}, false
	}
	f.out.hits = r.Hits
	f.out.agg = r.Agg
	return f.out, true
}

// nativeJoinIndex is a shard's join backend: the dictionary partition
// (sorted values + global codes, as nativeIndex) plus the build-side
// hash-table partition, drained together through per-slot composite
// frames. The cost unit is wall nanoseconds.
type nativeJoinIndex struct {
	table []uint64
	codes []uint32
	jt    *nativejoin.Table
	// slots holds one composite frame per scheduler slot across every
	// batch the shard ever drains.
	slots *coro.FlatSlots[joinFrame]
	// rs drains OpRange scans over the dictionary column (ranges are a
	// dictionary operation; the build side is keyed by code and plays no
	// part in them).
	rs *rangeScanner
}

func newNativeJoinIndex(vals []uint64, codes []uint32, jt *nativejoin.Table) *nativeJoinIndex {
	return &nativeJoinIndex{
		table: vals,
		codes: codes,
		jt:    jt,
		slots: new(coro.FlatSlots[joinFrame]),
		rs:    new(rangeScanner),
	}
}

// scanRanges scans the dictionary column, exactly as the lookup backend.
func (x *nativeJoinIndex) scanRanges(ops []Op, limits []int, group int, pairs [][]native.Pair) float64 {
	return x.rs.scan(x.table, x.codes, ops, limits, group, pairs)
}

// rebuild constructs the next-epoch join backend over the merged
// dictionary column. The build-side table is keyed by code, which writes
// edit only through the dictionary mapping, so the table and the drain
// slots carry over — a join install is a pointer swap.
func (x *nativeJoinIndex) rebuild(vals []uint64, codes []uint32) *nativeJoinIndex {
	return &nativeJoinIndex{table: vals, codes: codes, jt: x.jt, slots: x.slots, rs: x.rs}
}

// drainBatch resolves one point sub-batch of mixed lookup/join futures
// against the given delta view and completes their result fields (not
// their done channels — the shard closes those after recording latency).
// Futures pre-marked dropped decline their start: they never occupy a
// slot and are never probed. Returns the batch cost in nanoseconds for
// the controller.
//
//isi:hotpath
func (x *nativeJoinIndex) drainBatch(dv deltaView, sub []*Future, group int) float64 {
	t0 := time.Now()
	//isi:allow-alloc(two closures per batch over the batch's columns, called and not retained by DrainFlat; O(1) per batch, not per key)
	sink := func(i int, r joinOut) {
		f := sub[i]
		f.res = Result{Code: r.code, Found: r.found}
		if f.op.Kind == OpJoin {
			f.jres = JoinResult{Code: r.code, Hits: r.hits, Agg: r.agg}
		}
	}
	coro.DrainFlat(x.slots, len(sub), group,
		//isi:allow-alloc(see the sink closure above)
		func(fr *joinFrame, i int) bool {
			f := sub[i]
			if f.dropped {
				return false
			}
			if fr.init(x, dv, f.op.Key, f.op.Kind == OpJoin, nil, i) {
				return true
			}
			sink(i, fr.out)
			return false
		},
		sink)
	return float64(time.Since(t0))
}

// drainSegment resolves one shard segment [lo, hi) of a vectorized
// batch against the given delta view, writing into the batch's
// caller-visible slices; join segments additionally stream every
// build-tuple match into the batch's per-shard match buffer. Returns the
// segment cost in nanoseconds.
//
//isi:hotpath
func (x *nativeJoinIndex) drainSegment(dv deltaView, bf *BatchFuture, shardID, lo, hi, group int) float64 {
	t0 := time.Now()
	join := bf.kind == OpJoin
	var msink *[]Match
	if join {
		msink = &bf.matches[shardID]
	}
	keys := bf.keys[lo:hi]
	//isi:allow-alloc(two closures per batch over the batch's columns, called and not retained by DrainFlat; O(1) per batch, not per key)
	sink := func(i int, r joinOut) {
		bf.res[lo+i] = Result{Code: r.code, Found: r.found}
		if join {
			bf.jres[lo+i] = JoinResult{Code: r.code, Hits: r.hits, Agg: r.agg}
		}
	}
	coro.DrainFlat(x.slots, len(keys), group,
		//isi:allow-alloc(see the sink closure above)
		func(fr *joinFrame, i int) bool {
			if fr.init(x, dv, keys[i], join, msink, lo+i) {
				return true
			}
			sink(i, fr.out)
			return false
		},
		sink)
	return float64(time.Since(t0))
}
