package serve

import (
	"context"
	"iter"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the column admission path. The paper's index join is a
// column operator — Section 6 drains an entire probe column through the
// interleaved kernels — so every admission ends in a column: a key column
// (SubmitBatch/GoBatch/JoinBatch, one read kind over the caller's keys)
// or an op column (ApplyBatch/ApplyBatchAtomic, and every sealed point
// batch of Submit: ops of any point kind). Both are grouped by shard the
// same way, through an order-keeping index permutation (perm, counted
// then scattered by groupByShard): the column itself is only read, each
// shard walks its share in submission order, and result i belongs to the
// i-th key or op as submitted.
//
// Each shard receives a contiguous segment descriptor by value and
// writes results into slices the caller reads directly off the
// BatchFuture — O(1) allocations per column, zero per-key channels. A
// point Future is an index into its sealed batch's slab.

// Match is one streamed join match: build tuple Payload matched probe
// key Key (global dictionary code Code), the key submitted at index Probe
// of the batch's Keys()/Results() columns.
type Match struct {
	Probe   int
	Key     uint64
	Code    uint32
	Payload uint32
}

// BatchFuture is one in-flight column: a key column (SubmitBatch) or an
// op column (ApplyBatch, or a sealed batch of point Submits). The
// service reads the column until the batch completes and never reorders
// it: after Wait, Results()[i] is the outcome of Keys()[i] (a key
// column) or Ops()[i] (an op column), the i-th element as submitted.
type BatchFuture struct {
	ctx  context.Context
	kind OpKind // key columns only
	enq  time.Time
	// keys is a key column, ops an op column, either in submission
	// order; perm groups the column by shard without moving it — shard i
	// drains element perm[j] for j in bounds[i]..bounds[i+1], in
	// submission order. futs is a point batch's slab, one Future per op
	// carrying the op's own context and enqueue time; nil for the other
	// columns, whose elements share ctx and enq.
	keys []uint64
	ops  []Op
	perm []uint32
	futs []Future
	res  []Result
	jres []JoinResult // join key columns, and op columns on a join service
	// matches collects a join key column's streamed matches, one
	// independently appended slice per shard (each written only by its
	// owning shard goroutine).
	matches [][]Match
	// bounds[i]..bounds[i+1] is shard i's segment of perm.
	bounds  []int
	err     error // ErrClosed when the submission never entered the service
	pending atomic.Int32
	dropped atomic.Uint64
	done    chan struct{}
	// snapSeq is the read horizon (latestSeq = read at the current commit
	// horizon, loaded per shard segment or read run); snap is an
	// ephemeral pin taken at admission (WithSnapshotReads, or an
	// At-variant called with nil), released when the batch completes.
	snapSeq uint64
	snap    *Snap
	// atomicSeq tags an ApplyBatchAtomic batch (0 = plain): its writes
	// carry the seq into the deltas and stay invisible until the last
	// segment lands and svc's commit queue advances the horizon past it.
	atomicSeq uint64
	svc       *Service
	b         *batcher // a point batch's batcher, whose window it holds
}

// Err blocks until the batch completes and reports whether it entered
// the service: ErrClosed if the submission observed a closed service
// (nothing was grouped or probed, Results is nil), nil otherwise.
func (bf *BatchFuture) Err() error {
	<-bf.done
	return bf.err
}

// Done returns a channel closed when every shard segment has completed.
func (bf *BatchFuture) Done() <-chan struct{} { return bf.done }

// Keys returns a key column's keys in submission order; the slice
// aliases the caller's submission. Nil for op columns — use Ops.
func (bf *BatchFuture) Keys() []uint64 { return bf.keys }

// Ops returns an op column's operations in submission order; the slice
// aliases the caller's submission. Nil for key columns.
func (bf *BatchFuture) Ops() []Op { return bf.ops }

// Wait blocks until the batch completes and returns the per-op
// dictionary results, aligned with Keys() (a key column) or Ops() (an op
// column).
func (bf *BatchFuture) Wait() []Result {
	<-bf.done
	return bf.res
}

// WaitJoin blocks until the batch completes and returns the per-op join
// outcomes, aligned like Wait. Only meaningful for JoinBatch, and for op
// columns carrying OpJoin (nil otherwise).
func (bf *BatchFuture) WaitJoin() []JoinResult {
	<-bf.done
	return bf.jres
}

// Dropped reports how many of the batch's ops were dropped before
// their shard drained them (context cancelled or deadline expired).
// Valid after the batch completes.
func (bf *BatchFuture) Dropped() int { return int(bf.dropped.Load()) }

// Matches streams the batch's join matches: one Match per (probe,
// build tuple) pair, with per-match payloads rather than the
// aggregates of WaitJoin. The sequence may be ranged repeatedly, each
// pass from the start; iteration blocks until the batch completes.
// Matches are grouped by shard and, within a probe, in build-chain
// order; Probe indexes Keys() and WaitJoin() as submitted. Empty for
// lookup batches and op columns.
func (bf *BatchFuture) Matches() iter.Seq[Match] {
	return func(yield func(Match) bool) {
		<-bf.done
		for _, seg := range bf.matches {
			for _, m := range seg {
				if !yield(m) {
					return
				}
			}
		}
	}
}

// segDone retires one shard segment, accumulating its dropped count;
// the last segment completes the batch. An atomic batch commits its seq
// (advancing the commit horizon over the contiguous completed prefix)
// before done closes, so a reader admitted after Wait returns observes
// the whole batch; an ephemeral admission pin releases here too. A
// point batch frees its batcher's window before done closes, so the
// waiter's next op finds it open.
func (bf *BatchFuture) segDone(dropped uint64) {
	if dropped > 0 {
		bf.dropped.Add(dropped)
	}
	if bf.pending.Add(-1) == 0 {
		if bf.atomicSeq != 0 {
			bf.svc.commits.commit(bf.atomicSeq, &bf.svc.horizon)
		}
		bf.snap.Release()
		if bf.b != nil {
			bf.b.finished()
		}
		close(bf.done)
	}
}

// SubmitBatch admits one vectorized operation over a whole key column.
// The service reads keys until the batch completes and never reorders
// them: the caller must not modify the slice until Wait/WaitJoin/Done
// report completion, and Wait()[i] (WaitJoin()[i]) is the outcome of
// keys[i] as submitted. Admission itself performs O(1) allocations
// regardless of len(keys) and bypasses the group-commit batcher — the
// column already is a batch. A nil ctx never cancels; a ctx cancelled
// before a shard drains its segment drops that segment unprobed. A
// submission racing or following Close completes immediately with
// Err() == ErrClosed and nil Results — the admission gate makes the
// race safe, exactly like the point path. OpJoin requires WithBuild.
func (s *Service) SubmitBatch(ctx context.Context, kind OpKind, keys []uint64) *BatchFuture {
	return s.submitBatch(ctx, kind, keys, nil, s.snapReads)
}

// SubmitBatchAt is SubmitBatch reading at a pinned commit horizon: the
// batch observes exactly the atomic batches committed at or before the
// pin, on every shard — all of a cross-shard ApplyBatchAtomic or none
// of it. Plain writes remain immediately visible (pinning fences atomic
// batches, it does not give repeatable reads). A nil sn pins the current
// horizon ephemerally at admission and releases it when the batch
// completes; a non-nil sn is the caller's to Release.
func (s *Service) SubmitBatchAt(ctx context.Context, kind OpKind, keys []uint64, sn *Snap) *BatchFuture {
	return s.submitBatch(ctx, kind, keys, sn, true)
}

// submitBatch admits a key column read at sn, or — sn nil and pin set —
// at the current horizon pinned ephemerally.
func (s *Service) submitBatch(ctx context.Context, kind OpKind, keys []uint64, sn *Snap, pin bool) *BatchFuture {
	if kind.IsWrite() {
		panic("serve: SubmitBatch of write kind " + kind.String() + " (use ApplyBatch)")
	}
	s.checkOp(Op{Kind: kind})
	bf := &BatchFuture{
		ctx:     ctx,
		kind:    kind,
		enq:     time.Now(),
		keys:    keys,
		done:    make(chan struct{}),
		snapSeq: latestSeq,
	}
	s.admitGate.RLock()
	defer s.admitGate.RUnlock()
	if s.refuse(bf, len(keys)) {
		return bf
	}
	if sn != nil {
		bf.snapSeq = sn.Seq()
	}
	if kind == OpJoin {
		bf.jres = make([]JoinResult, len(keys))
		bf.matches = make([][]Match, len(s.shards))
	}
	admitColumn(s, bf, keys, keyRoute, pin && sn == nil)
	return bf
}

// refuse completes a vectorized admission that never reaches a shard:
// a closed service refuses its n ops with ErrClosed, and an empty column
// completes at once. It reports whether bf was completed. The caller
// holds the admission gate's read side.
func (s *Service) refuse(bf *BatchFuture, n int) bool {
	if s.closed.Load() {
		s.closedDrops.Add(uint64(n))
		bf.err = ErrClosed
	} else if n > 0 {
		return false
	}
	close(bf.done)
	return true
}

// admitOps admits an op column — a sealed point batch or an
// ApplyBatch[Atomic] column — through admitColumn, routed by op key; on a
// join service every op column carries a join result column.
func (s *Service) admitOps(bf *BatchFuture, pin bool) {
	if s.hasBuild {
		bf.jres = make([]JoinResult, len(bf.ops))
	}
	admitColumn(s, bf, bf.ops, opRoute, pin)
}

// admitColumn is the one admission body of every column: pin the read
// horizon when asked, allocate the result column, group the column by
// shard (keyOf is its routing key) and hand every shard its segment,
// blocking on shard back-pressure and stamping each segment's enqueue
// under the batch correlation id.
func admitColumn[E any](s *Service, bf *BatchFuture, col []E, keyOf func(E) uint64, pin bool) {
	n := len(col)
	if pin {
		bf.snap = s.Snapshot()
		bf.snapSeq = bf.snap.Seq()
	}
	bf.res = make([]Result, n)
	bf.perm = make([]uint32, n)
	bf.bounds = groupByShard(col, keyOf, bf.perm, len(s.shards))
	id := s.nextBatch(n)
	nseg := int32(0)
	for i := range s.shards {
		if bf.bounds[i+1] > bf.bounds[i] {
			nseg++
		}
	}
	bf.pending.Store(nseg)
	for i, sh := range s.shards {
		if lo, hi := bf.bounds[i], bf.bounds[i+1]; hi > lo {
			sh.ring.Record(obs.SpanEnqueue, i, id, hi-lo, 0)
			sh.in <- shardMsg{bf: bf, lo: lo, hi: hi, id: id}
		}
	}
}

// ApplyBatch admits one op column: any mix of the kinds Submit accepts
// (lookups, join probes on a service built WithBuild, inserts, deletes),
// grouped by shard without being reordered and executed by each shard in
// submission order — drops first, then each write at its position and
// each maximal run of reads drained interleaved through the kernels, so
// a read observes every earlier write to its key in the same column.
// Results are aligned with ops as submitted. The service reads ops until
// the batch completes; the caller must not modify the slice before then.
// Context semantics match SubmitBatch: a ctx cancelled before a shard
// drains its segment drops that segment's ops unprobed and unapplied.
// A shard executes its whole segment between other batches, so they
// observe all of the segment's writes or none — the per-shard atomicity
// the snapshot-consistency tests lean on; no order is promised across
// shards. Like SubmitBatch, ApplyBatch may race Close freely and refuses
// with ErrClosed.
//
// Ordering contract: within one column, ops on the same shard — in
// particular every op on one key — execute in submission order, so the
// last submitted write to a key is the one that stays. Across calls,
// per-key order is promised only after completion: a column admitted
// after an earlier one's Wait returned observes all of its writes;
// columns in flight together may apply in either order.
func (s *Service) ApplyBatch(ctx context.Context, ops []Op) *BatchFuture {
	for _, op := range ops {
		s.checkOp(op)
	}
	return s.applyBatch(ctx, ops, false, nil, s.snapReads)
}

// ApplyBatchAt is ApplyBatch with the column's reads at a pinned commit
// horizon, the op-column twin of SubmitBatchAt: every read observes the
// atomic batches committed at or before the pin — all of a cross-shard
// ApplyBatchAtomic or none of it — while plain writes, the column's own
// included, stay immediately visible. A nil sn pins the current horizon
// ephemerally at admission and releases it when the batch completes; a
// non-nil sn is the caller's to Release.
func (s *Service) ApplyBatchAt(ctx context.Context, ops []Op, sn *Snap) *BatchFuture {
	for _, op := range ops {
		s.checkOp(op)
	}
	return s.applyBatch(ctx, ops, false, sn, true)
}

// ApplyBatchAtomic admits one cross-shard atomic write batch: the same
// ownership, grouping and ordering as ApplyBatch over a column of
// OpInsert/OpDelete only (read kinds panic), but the batch's writes are
// tagged with a fresh atomic seq and stay invisible — on every shard —
// until the last segment lands and the commit queue advances the commit
// horizon past the seq. A snapshot reader (the At-suffixed reads,
// WithSnapshotReads) therefore observes all of the batch or none of it;
// a latest reader loads the horizon per shard segment and may see the
// batch appear between segments.
//
// Cancellation is admission-time only: a ctx already cancelled refuses
// the whole batch (every op Dropped, nothing applied), but once admitted
// the batch always applies in full — dropping one shard's segment
// mid-flight would tear the batch and wedge the commit queue. Per-key
// conflicts resolve by per-shard apply order (last apply wins): a plain
// write landing after an uncommitted atomic entry shadows it for every
// reader even if the batch commits later.
//
// Wait returns after the commit horizon includes the batch, so a read
// admitted afterwards — snapshot or latest — observes it.
func (s *Service) ApplyBatchAtomic(ctx context.Context, ops []Op) *BatchFuture {
	for _, op := range ops {
		if !op.Kind.IsWrite() {
			panic("serve: ApplyBatchAtomic of read kind " + op.Kind.String())
		}
		s.checkOp(op)
	}
	return s.applyBatch(ctx, ops, true, nil, false)
}

// applyBatch admits a validated op column through the admission gate,
// its reads at sn or — sn nil and pin set — at the current horizon
// pinned ephemerally (submitBatch's convention).
func (s *Service) applyBatch(ctx context.Context, ops []Op, atomic bool, sn *Snap, pin bool) *BatchFuture {
	bf := &BatchFuture{ctx: ctx, enq: time.Now(), ops: ops, done: make(chan struct{}), snapSeq: latestSeq}
	s.admitGate.RLock()
	defer s.admitGate.RUnlock()
	if s.refuse(bf, len(ops)) {
		return bf
	}
	if sn != nil {
		bf.snapSeq = sn.Seq()
	}
	// A cancelled atomic column mints no seq, so the commit horizon
	// cannot wedge behind it; it drains as a plain column, every op
	// dropped.
	if atomic && (ctx == nil || ctx.Err() == nil) {
		bf.svc = s
		bf.atomicSeq = s.atomSeq.Add(1)
	}
	s.admitOps(bf, pin && sn == nil)
	return bf
}

// GoBatch submits a whole probe column of point lookups:
// SubmitBatch(ctx, OpLookup, keys).
func (s *Service) GoBatch(ctx context.Context, keys []uint64) *BatchFuture {
	return s.SubmitBatch(ctx, OpLookup, keys)
}

// GoBatchAt is GoBatch at a pinned commit horizon (see SubmitBatchAt).
func (s *Service) GoBatchAt(ctx context.Context, keys []uint64, sn *Snap) *BatchFuture {
	return s.SubmitBatchAt(ctx, OpLookup, keys, sn)
}

// JoinBatch submits a whole probe column of join probes, with streamed
// per-match payloads available through Matches.
func (s *Service) JoinBatch(ctx context.Context, keys []uint64) *BatchFuture {
	return s.SubmitBatch(ctx, OpJoin, keys)
}

// JoinBatchAt is JoinBatch at a pinned commit horizon (see
// SubmitBatchAt).
func (s *Service) JoinBatchAt(ctx context.Context, keys []uint64, sn *Snap) *BatchFuture {
	return s.SubmitBatchAt(ctx, OpJoin, keys, sn)
}

// keyRoute and opRoute are the routing keys of a key column's and an op
// column's elements.
func keyRoute(k uint64) uint64 { return k }
func opRoute(op Op) uint64     { return op.Key }

// groupByShard groups a column by owning shard without moving it: a
// counting pass, then a stable scatter of the element indices into perm,
// so shard i drains col[perm[j]] for j in [bounds[i], bounds[i+1]) in
// submission order. keyOf extracts the routing key; perm is len(col).
// The counts double as the scatter cursors, so the bounds are the only
// allocation.
func groupByShard[E any](col []E, keyOf func(E) uint64, perm []uint32, nsh int) []int {
	bounds := make([]int, nsh+1)
	for _, e := range col {
		bounds[shardOf(keyOf(e), nsh)+1]++
	}
	for i := 1; i <= nsh; i++ {
		bounds[i] += bounds[i-1]
	}
	// bounds[sh] is shard sh's cursor; the scatter leaves it at shard
	// sh+1's start, so the bounds shift back by one afterwards.
	for i, e := range col {
		sh := shardOf(keyOf(e), nsh)
		perm[bounds[sh]] = uint32(i)
		bounds[sh]++
	}
	copy(bounds[1:], bounds[:nsh])
	bounds[0] = 0
	return bounds
}
