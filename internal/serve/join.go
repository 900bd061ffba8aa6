package serve

import (
	"repro/internal/coro"
	"repro/internal/nativejoin"
)

// This file is the join execution path: the service's build side and the
// two-stage drain join batches go through.
//
// A join service (New with WithBuild) gives every shard, next to its
// dictionary partition, a build-side partition: a real-memory
// bucket-chained hash table (internal/nativejoin) keyed by the build
// tuples' *global dictionary codes*. Build tuples are partitioned by the
// same key hash as the dictionary, so the shard that resolves a probe
// key to its code also owns every build tuple with that key — the
// dictionary lookup pipes its code into the hash probe without leaving
// the shard.
//
// Stage 1 resolves the whole segment (or point run) to codes through the
// very lookupBatch a lookup service runs — delta first, then the
// two-level search over the dictionary partition (the page sample in
// lockstep, then an interleaved binary search inside one page) — so
// joins stay consistent with lookups on a service whose dictionary
// mutates, and a plain lookup on a join service costs what it costs on a
// lookup service.
// Stage 2 walks the hash chains of the keys stage 1 found, one small
// probeFrame each; a delta hit carries its delta code into the walk, a
// tombstone or a miss never gets that far. The stages suspend where their
// own loads can miss and drag no state of the other along (CoroBase's
// two-level argument). Every search takes the same number of rounds, but
// chains diverge per key, so stage 2's streams fall out of lockstep; the
// round-robin scheduler (coro.DrainFlat) absorbs that, which is exactly
// the decoupled-control-flow case the paper builds coroutines for. Both
// stages run at the one group size the shard's controller tunes.

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

// probeFrame is stage 2's coroutine frame: one hash-chain walk, plus —
// on a vectorized join — the match it streams per matching build tuple,
// all live state hand-spilled into one flat struct (see internal/native's
// SearchCursor for why closures won't do). One frame per scheduler slot
// lives by value in the shard's coro.FlatSlots, so a shard drains an
// unbounded request sequence with no per-request allocation.
type probeFrame struct {
	jt  *nativejoin.Table
	cur nativejoin.Cursor
	// msink, when non-nil, is the owning batch's per-shard match buffer;
	// m is the match to stream into it (the probe's index in the
	// partitioned column, its key and code), less the payload.
	msink *[]Match
	m     Match
}

// Step is the frame's resume (coro.FlatFrame): one chain node.
//
//isi:hotpath
func (f *probeFrame) Step() (nativejoin.Result, bool) {
	r, done := f.cur.Step(f.jt)
	if f.msink != nil {
		if payload, hit := f.cur.Matched(); hit {
			f.m.Payload = payload
			*f.msink = append(*f.msink, f.m) //isi:allow-alloc(streams into the batch's per-shard match buffer, whose growth amortizes across batches)
		}
	}
	return r, done
}

// drainBatch resolves one point run's live futures — keys and out are
// their gathered key and result columns — against the given delta view
// and completes their result fields (not their done channels — the shard
// closes those after recording latency). Stage 1 answers every key; on a
// join service stage 2 then walks the chains of the join probes it
// found.
//
//isi:hotpath
func (x *index) drainBatch(dv deltaView, live []*Future, keys []uint64, group int, out []Result) {
	x.lookupBatch(dv, keys, group, out)
	for i, f := range live {
		f.res = out[i] // stage 1's answer, for lookups and joins alike
	}
	if x.jt == nil {
		return
	}
	coro.DrainFlat(&x.slots.probes, len(live), group,
		//isi:allow-alloc(two closures per batch over the batch's columns, called and not retained by DrainFlat; O(1) per batch, not per key)
		func(fr *probeFrame, i int) bool {
			f := live[i]
			if f.op.Kind != OpJoin {
				return false
			}
			f.jres = JoinResult{Code: out[i].Code}
			if !out[i].Found {
				return false
			}
			*fr = probeFrame{jt: x.jt, cur: x.jt.Start(uint64(out[i].Code))}
			return true
		},
		//isi:allow-alloc(see the start closure above)
		func(i int, r nativejoin.Result) {
			live[i].jres.Hits, live[i].jres.Agg = r.Hits, r.Agg
		})
}

// drainSegment resolves one shard segment [lo, hi) of a vectorized
// batch against the given delta view, writing into the batch's
// caller-visible slices; join segments (admitted on a join service only)
// additionally stream every build-tuple match into the batch's per-shard
// match buffer.
//
//isi:hotpath
func (x *index) drainSegment(dv deltaView, bf *BatchFuture, shardID, lo, hi, group int) {
	keys, res := bf.keys[lo:hi], bf.res[lo:hi]
	x.lookupBatch(dv, keys, group, res)
	if bf.kind != OpJoin {
		return
	}
	jres, msink := bf.jres[lo:hi], &bf.matches[shardID]
	coro.DrainFlat(&x.slots.probes, len(keys), group,
		//isi:allow-alloc(two closures per batch over the batch's columns, called and not retained by DrainFlat; O(1) per batch, not per key)
		func(fr *probeFrame, i int) bool {
			code := res[i].Code
			jres[i] = JoinResult{Code: code}
			if !res[i].Found {
				return false
			}
			*fr = probeFrame{
				jt: x.jt, cur: x.jt.Start(uint64(code)),
				msink: msink, m: Match{Probe: lo + i, Key: keys[i], Code: code},
			}
			return true
		},
		//isi:allow-alloc(see the start closure above)
		func(i int, r nativejoin.Result) {
			jres[i].Hits, jres[i].Agg = r.Hits, r.Agg
		})
}
