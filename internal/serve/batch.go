package serve

import (
	"context"
	"iter"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the vectorized admission path. The paper's index join is
// a column operator — Section 6 drains an entire probe column through
// the interleaved kernels — so a client that already holds the probe
// vector should not pay a Future allocation per key only for the
// group-commit batcher to re-assemble the batch it started with.
// SubmitBatch admits the whole column in O(1) allocations: the caller's
// key slice is partitioned in place by shard (an in-place counting-sort
// permutation), each shard receives a contiguous segment descriptor by
// value, and results are written into slices the caller reads directly
// off the BatchFuture — zero per-key futures, zero per-key channels.

// Match is one streamed join match: build tuple Payload matched probe
// key Key (global dictionary code Code), which sits at index Probe of
// the batch's partitioned Keys()/Results() vectors.
type Match struct {
	Probe   int
	Key     uint64
	Code    uint32
	Payload uint32
}

// BatchFuture is one in-flight vectorized submission. The submitted key
// (or op) slice is owned by the service until the batch completes and is
// reordered in place by shard partitioning: after Wait, Results()[i] is
// the outcome for Keys()[i] (Ops()[i] for a write batch), where Keys()
// is the caller's slice in its partitioned order.
type BatchFuture struct {
	ctx  context.Context
	kind OpKind
	enq  time.Time
	keys []uint64
	ops  []Op // write batches (ApplyBatch) only
	res  []Result
	jres []JoinResult // join batches only
	// matches collects streamed join matches, one independently appended
	// slice per shard (each written only by its owning shard goroutine).
	matches [][]Match
	// bounds[i]..bounds[i+1] is shard i's segment of keys.
	bounds  []int
	err     error // ErrClosed when the submission never entered the service
	pending atomic.Int32
	dropped atomic.Uint64
	done    chan struct{}
	// snapSeq is the read horizon (latestSeq = read at the current commit
	// horizon, loaded per shard segment); snap is an ephemeral pin taken
	// at admission for an At-variant called with nil, released when the
	// batch completes.
	snapSeq uint64
	snap    *Snap
	// atomicSeq tags an ApplyBatchAtomic batch (0 = plain): its writes
	// carry the seq into the deltas and stay invisible until the last
	// segment lands and svc's commit queue advances the horizon past it.
	atomicSeq uint64
	svc       *Service
}

// Err blocks until the batch completes and reports whether it entered
// the service: ErrClosed if the submission observed a closed service
// (nothing was partitioned or probed, Results is nil), nil otherwise.
func (bf *BatchFuture) Err() error {
	<-bf.done
	return bf.err
}

// Done returns a channel closed when every shard segment has completed.
func (bf *BatchFuture) Done() <-chan struct{} { return bf.done }

// Keys returns the submitted keys in partitioned order. Valid after the
// batch completes; the slice aliases the caller's submission. Nil for
// write batches — use Ops.
func (bf *BatchFuture) Keys() []uint64 { return bf.keys }

// Ops returns a write batch's operations in partitioned order. Valid
// after the batch completes; the slice aliases the caller's submission.
// Nil for read batches.
func (bf *BatchFuture) Ops() []Op { return bf.ops }

// Wait blocks until the batch completes and returns the per-key
// dictionary results, aligned with Keys().
func (bf *BatchFuture) Wait() []Result {
	<-bf.done
	return bf.res
}

// WaitJoin blocks until the batch completes and returns the per-key
// join outcomes, aligned with Keys(). Only meaningful for JoinBatch
// submissions (nil otherwise).
func (bf *BatchFuture) WaitJoin() []JoinResult {
	<-bf.done
	return bf.jres
}

// Dropped reports how many of the batch's keys were dropped before
// their shard drained them (context cancelled or deadline expired).
// Valid after the batch completes.
func (bf *BatchFuture) Dropped() int { return int(bf.dropped.Load()) }

// Matches streams the batch's join matches: one Match per (probe,
// build tuple) pair, with per-match payloads rather than the
// aggregates of WaitJoin. The sequence may be ranged repeatedly, each
// pass from the start; iteration blocks until the batch completes. Matches are grouped by shard and, within a probe, in
// build-chain order; use Probe to correlate with Keys(). Empty for
// lookup batches.
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
// the whole batch; an ephemeral admission pin releases here too.
func (bf *BatchFuture) segDone(dropped uint64) {
	if dropped > 0 {
		bf.dropped.Add(dropped)
	}
	if bf.pending.Add(-1) == 0 {
		if bf.atomicSeq != 0 {
			bf.svc.commits.commit(bf.atomicSeq, &bf.svc.horizon)
		}
		bf.snap.Release()
		close(bf.done)
	}
}

// SubmitBatch admits one vectorized operation over a whole key column.
// It takes ownership of keys until the batch completes and reorders it
// in place (shard partitioning); the caller must not touch the slice
// until Wait/WaitJoin/Done report completion, and reads results aligned
// with the reordered Keys(). Admission itself performs O(1) allocations
// regardless of len(keys) and bypasses the group-commit batcher — the
// column already is a batch. A nil ctx never cancels; a ctx cancelled
// before a shard drains its segment drops that segment unprobed. A
// submission racing or following Close completes immediately with
// Err() == ErrClosed and nil Results — the admission gate makes the
// race safe, exactly like the point path. OpJoin requires WithBuild.
func (s *Service) SubmitBatch(ctx context.Context, kind OpKind, keys []uint64) *BatchFuture {
	return s.submitBatch(ctx, kind, keys, nil, nil, nil, s.snapReads)
}

// SubmitBatchAt is SubmitBatch reading at a pinned commit horizon: the
// batch observes exactly the atomic batches committed at or before the
// pin, on every shard — all of a cross-shard ApplyBatchAtomic or none
// of it. Plain writes remain immediately visible (pinning fences atomic
// batches, it does not give repeatable reads). A nil sn pins the current
// horizon ephemerally at admission and releases it when the batch
// completes; a non-nil sn is the caller's to Release.
func (s *Service) SubmitBatchAt(ctx context.Context, kind OpKind, keys []uint64, sn *Snap) *BatchFuture {
	return s.submitBatch(ctx, kind, keys, nil, nil, sn, true)
}

// SubmitBatchScatter is SubmitBatch for a caller that answers in
// submission order (the wire server): src is only read, and its keys are
// copied into keys grouped by shard with idx recording the permutation —
// after admission Keys()[j] == src[idx[j]], so result j belongs at
// position idx[j] of the submission and Match.Probe j re-points to
// idx[j]. keys and idx are the caller's, len(src) each, owned by the
// service until the batch completes; a refused submission (Err() ==
// ErrClosed) leaves them unwritten. snapshot pins the read as
// SubmitBatchAt with a nil Snap does.
func (s *Service) SubmitBatchScatter(ctx context.Context, kind OpKind, src, keys []uint64, idx []uint32, snapshot bool) *BatchFuture {
	if len(keys) != len(src) || len(idx) != len(src) {
		panic("serve: SubmitBatchScatter columns differ in length")
	}
	return s.submitBatch(ctx, kind, keys, src, idx, nil, snapshot || s.snapReads)
}

// submitBatch admits keys partitioned in place, or — when idx is non-nil
// — filled from src by scatterByShard.
func (s *Service) submitBatch(ctx context.Context, kind OpKind, keys, src []uint64, idx []uint32, sn *Snap, pin bool) *BatchFuture {
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
	n := len(keys)
	s.admitGate.RLock()
	defer s.admitGate.RUnlock()
	if s.closed.Load() {
		s.closedDrops.Add(uint64(n))
		bf.err = ErrClosed
		close(bf.done)
		return bf
	}
	if n == 0 {
		close(bf.done)
		return bf
	}
	if pin {
		if sn == nil {
			bf.snap = s.Snapshot()
			sn = bf.snap
		}
		bf.snapSeq = sn.Seq()
	}
	bf.res = make([]Result, n)
	if kind == OpJoin {
		bf.jres = make([]JoinResult, n)
		bf.matches = make([][]Match, len(s.shards))
	}
	if idx == nil {
		bf.bounds = partitionByShard(keys, len(s.shards), func(k uint64) uint64 { return k })
	} else {
		bf.bounds = scatterByShard(src, keys, idx, len(s.shards))
	}
	s.dispatchSegments(bf, s.nextBatch(n))
	return bf
}

// dispatchSegments hands a partitioned batch's non-empty segments to
// their shards (blocking on shard back-pressure, like point dispatch),
// stamping each segment's enqueue under the batch correlation id.
func (s *Service) dispatchSegments(bf *BatchFuture, id uint64) {
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

// ApplyBatch admits one vectorized write batch: a column of OpInsert/
// OpDelete operations partitioned in place by shard and applied by each
// shard in op order. Ownership, blocking, and context semantics match
// SubmitBatch; results are the per-op acknowledgements, aligned with
// Ops(). A shard applies its whole segment between drains, so other
// batches on that shard observe all of the segment's writes or none —
// the per-shard atomicity the snapshot-consistency tests lean on (no
// ordering is promised across shards). Like SubmitBatch, ApplyBatch may
// race Close freely and refuses with ErrClosed. Read kinds panic: mixed
// read/write columns go through point admission, which preserves
// submission order.
func (s *Service) ApplyBatch(ctx context.Context, ops []Op) *BatchFuture {
	for _, op := range ops {
		if !op.Kind.IsWrite() {
			panic("serve: ApplyBatch of read kind " + op.Kind.String())
		}
		s.checkOp(op)
	}
	bf := &BatchFuture{
		ctx:     ctx,
		kind:    OpInsert,
		enq:     time.Now(),
		ops:     ops,
		done:    make(chan struct{}),
		snapSeq: latestSeq,
	}
	s.admitGate.RLock()
	defer s.admitGate.RUnlock()
	if s.closed.Load() {
		s.closedDrops.Add(uint64(len(ops)))
		bf.err = ErrClosed
		close(bf.done)
		return bf
	}
	if len(ops) == 0 {
		close(bf.done)
		return bf
	}
	bf.res = make([]Result, len(ops))
	bf.bounds = partitionByShard(ops, len(s.shards), func(o Op) uint64 { return o.Key })
	s.dispatchSegments(bf, s.nextBatch(len(ops)))
	return bf
}

// ApplyBatchAtomic admits one cross-shard atomic write batch: the same
// validation, ownership, and partitioning as ApplyBatch, but the batch's
// writes are tagged with a fresh atomic seq and stay invisible — on
// every shard — until the last segment lands and the commit queue
// advances the commit horizon past the seq. A snapshot reader (the
// At-suffixed reads, WithSnapshotReads) therefore observes all of the
// batch or none of it; a latest reader loads the horizon per shard
// segment and may see the batch appear between segments.
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
	bf := &BatchFuture{
		ctx:     ctx,
		kind:    OpInsert,
		enq:     time.Now(),
		ops:     ops,
		done:    make(chan struct{}),
		snapSeq: latestSeq,
	}
	s.admitGate.RLock()
	defer s.admitGate.RUnlock()
	if s.closed.Load() {
		s.closedDrops.Add(uint64(len(ops)))
		bf.err = ErrClosed
		close(bf.done)
		return bf
	}
	if len(ops) == 0 {
		close(bf.done)
		return bf
	}
	if ctx != nil && ctx.Err() != nil {
		bf.res = make([]Result, len(ops))
		for i := range bf.res {
			bf.res[i] = Result{Code: NotFound, Dropped: true}
		}
		bf.dropped.Store(uint64(len(ops)))
		close(bf.done)
		return bf
	}
	bf.svc = s
	bf.atomicSeq = s.atomSeq.Add(1)
	bf.res = make([]Result, len(ops))
	bf.bounds = partitionByShard(ops, len(s.shards), func(o Op) uint64 { return o.Key })
	s.dispatchSegments(bf, s.nextBatch(len(ops)))
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

// partitionByShard groups items by owning shard with an in-place
// counting-sort permutation (American-flag style: one counting pass,
// then cycle swaps within each shard's region) and returns the segment
// bounds: shard i owns items[bounds[i]:bounds[i+1]]. keyOf extracts the
// routing key (the identity for a key column, Op.Key for a write
// column). Two O(Shards) allocations, none proportional to len(items).
func partitionByShard[E any](items []E, nsh int, keyOf func(E) uint64) []int {
	bounds := make([]int, nsh+1)
	for _, it := range items {
		bounds[shardOf(keyOf(it), nsh)+1]++
	}
	for i := 1; i <= nsh; i++ {
		bounds[i] += bounds[i-1]
	}
	cur := make([]int, nsh)
	copy(cur, bounds[:nsh])
	for b := 0; b < nsh; b++ {
		for i := cur[b]; i < bounds[b+1]; i = cur[b] {
			sh := shardOf(keyOf(items[i]), nsh)
			if sh == b {
				cur[b] = i + 1
				continue
			}
			items[i], items[cur[sh]] = items[cur[sh]], items[i]
			cur[sh]++
		}
	}
	return bounds
}

// scatterByShard is the out-of-place partition: one counting pass over
// src, then a stable scatter into dst that records each key's origin in
// idx (dst[j] == src[idx[j]]). With a second buffer there is no cycle to
// chase, so the loop carries no branch on the key — about a third of the
// in-place permutation's time on random keys. Same bounds as
// partitionByShard.
func scatterByShard(src, dst []uint64, idx []uint32, nsh int) []int {
	bounds := make([]int, nsh+1)
	for _, k := range src {
		bounds[shardOf(k, nsh)+1]++
	}
	for i := 1; i <= nsh; i++ {
		bounds[i] += bounds[i-1]
	}
	cur := make([]int, nsh)
	copy(cur, bounds[:nsh])
	dst, idx = dst[:len(src)], idx[:len(src)]
	for i, k := range src {
		sh := shardOf(k, nsh)
		d := cur[sh]
		cur[sh] = d + 1
		dst[d] = k
		idx[d] = uint32(i)
	}
	return bounds
}
