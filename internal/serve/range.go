package serve

import (
	"context"
	"iter"
	"sync/atomic"
	"time"

	"repro/internal/native"
	"repro/internal/obs"
)

// This file is the range-scan execution path: OpRange served through the
// same shard drains as point lookups, generalized from "probe one key
// delta-then-main" to "iterate [lo, hi] delta-then-main in order". A
// range cannot be routed to one shard — the hash partitioning scatters
// the key domain — so admission fans every range out to every shard.
// Each shard scans its epoch snapshot through the interleaved
// native.RangeCursor drain (index.scanRanges), three-way merges the scan
// with its delta view's parts (newest wins, tombstones mask — the point
// composite of delta.go, ordered), and parks its sorted per-range
// entries on the RangeFuture. The caller
// streams the final result through a k-way merge over the per-shard
// buffers (shards own disjoint key sets, so the merge is a plain
// ascending interleave): the merged sequence is never materialized, so
// an unbounded range costs per-shard buffers, not a second full copy.

// RangeEntry is one emitted range result: a present key and the global
// dictionary code it currently resolves to.
type RangeEntry struct {
	Key  uint64
	Code uint32
}

// RangeFuture is one in-flight range batch: len(ops) range scans fanned
// out to every shard.
type RangeFuture struct {
	ctx context.Context
	enq time.Time
	ops []Op
	// ents[shard][r] holds shard's sorted entries for range r — written
	// only by that shard's goroutine, read after done closes.
	ents [][][]RangeEntry
	// snapSeq is the atomic-batch visibility cut the scans drain at:
	// latestSeq for latest reads (each shard loads the horizon at drain).
	snapSeq uint64
	snap    *Snap // auto-taken pin, released when the batch completes
	err     error // ErrClosed when the submission never entered the service
	pending atomic.Int32
	dropped atomic.Uint64
	done    chan struct{}
}

// Done returns a channel closed when every shard has finished its scans.
func (rf *RangeFuture) Done() <-chan struct{} { return rf.done }

// Wait blocks until every shard has finished its scans.
func (rf *RangeFuture) Wait() { <-rf.done }

// Err blocks until the batch completes and reports whether it entered
// the service: ErrClosed if the submission observed a closed service
// (no shard was asked to scan), nil otherwise.
func (rf *RangeFuture) Err() error {
	<-rf.done
	return rf.err
}

// Ops returns the submitted range operations.
func (rf *RangeFuture) Ops() []Op { return rf.ops }

// Dropped blocks until the batch completes and reports whether any
// shard dropped its scans (context cancelled or deadline expired before
// that shard drained the batch, or the service was closed). A dropped
// batch's entry streams are incomplete and should be discarded.
func (rf *RangeFuture) Dropped() bool {
	<-rf.done
	return rf.dropped.Load() > 0 || rf.err != nil
}

// Entries streams range r's results in ascending key order, truncated
// at the range's Limit: a k-way merge over the per-shard sorted buffers
// (disjoint key sets — the shard partition), evaluated lazily so the
// merged result is never buffered whole. Iteration blocks until the
// batch completes; the sequence may be ranged repeatedly, each pass
// from the start.
func (rf *RangeFuture) Entries(r int) iter.Seq[RangeEntry] {
	return func(yield func(RangeEntry) bool) {
		<-rf.done
		var segs [][]RangeEntry
		for _, per := range rf.ents {
			if per != nil && len(per[r]) > 0 {
				segs = append(segs, per[r])
			}
		}
		limit := rf.ops[r].Limit
		pos := make([]int, len(segs))
		emitted := 0
		for limit <= 0 || emitted < limit {
			best := -1
			for s := range segs {
				if pos[s] < len(segs[s]) && (best < 0 || segs[s][pos[s]].Key < segs[best][pos[best]].Key) {
					best = s
				}
			}
			if best < 0 {
				return
			}
			if !yield(segs[best][pos[best]]) {
				return
			}
			pos[best]++
			emitted++
		}
	}
}

// Collect materializes range r's entries (Entries, gathered).
func (rf *RangeFuture) Collect(r int) []RangeEntry {
	var out []RangeEntry
	for e := range rf.Entries(r) {
		out = append(out, e)
	}
	return out
}

// segDone retires one shard's scans (dropped counts the ranges that
// shard dropped); the last shard completes the batch.
func (rf *RangeFuture) segDone(dropped uint64) {
	if dropped > 0 {
		rf.dropped.Add(dropped)
	}
	if rf.pending.Add(-1) == 0 {
		rf.snap.Release()
		close(rf.done)
	}
}

// Range admits one asynchronous range scan over [lo, hi] (inclusive),
// emitting at most limit entries when limit > 0: RangeBatch of one
// RangeOp. Results stream through Entries(0)/Collect(0).
func (s *Service) Range(ctx context.Context, lo, hi uint64, limit int) *RangeFuture {
	return s.RangeBatch(ctx, []Op{RangeOp(lo, hi, limit)})
}

// RangeBatch admits a column of OpRange operations as one unit: every
// shard receives the whole column (ranges cannot be routed by key hash)
// and scans its partition of each range between its other batches, so a
// range batch observes each shard's writes all-or-nothing, exactly like
// a read segment. Results are ordered per range via Entries/Collect. A
// nil ctx never cancels; a cancelled ctx drops the not-yet-drained
// shards' scans (Dropped reports it). A submission racing or following
// Close completes immediately with Err() == ErrClosed — the admission
// gate makes the race safe, like the other vectorized paths. Non-range
// kinds panic. Under WithSnapshotReads the batch drains at a pinned
// commit horizon (see RangeBatchAt).
func (s *Service) RangeBatch(ctx context.Context, ops []Op) *RangeFuture {
	return s.rangeBatch(ctx, ops, nil, s.snapReads)
}

// RangeBatchAt is RangeBatch draining at a pinned commit horizon: the
// scans observe exactly the atomic batches with seq <= sn.Seq() on
// every shard. A nil sn pins the current horizon for the batch's
// lifetime (released automatically on completion).
func (s *Service) RangeBatchAt(ctx context.Context, ops []Op, sn *Snap) *RangeFuture {
	return s.rangeBatch(ctx, ops, sn, true)
}

func (s *Service) rangeBatch(ctx context.Context, ops []Op, sn *Snap, pin bool) *RangeFuture {
	for _, op := range ops {
		if op.Kind != OpRange {
			panic("serve: RangeBatch of non-range kind " + op.Kind.String())
		}
	}
	rf := &RangeFuture{ctx: ctx, enq: time.Now(), ops: ops, snapSeq: latestSeq, done: make(chan struct{})}
	s.admitGate.RLock()
	defer s.admitGate.RUnlock()
	if s.closed.Load() {
		s.closedDrops.Add(uint64(len(ops)))
		rf.err = ErrClosed
		close(rf.done)
		return rf
	}
	if len(ops) == 0 {
		close(rf.done)
		return rf
	}
	if pin {
		if sn == nil {
			rf.snap = s.Snapshot()
			sn = rf.snap
		}
		rf.snapSeq = sn.Seq()
	}
	rf.ents = make([][][]RangeEntry, len(s.shards))
	rf.pending.Store(int32(len(s.shards)))
	id := s.nextBatch(len(ops))
	for _, sh := range s.shards {
		sh.ring.Record(obs.SpanEnqueue, sh.id, id, len(ops), 0)
		sh.in <- shardMsg{rf: rf, id: id}
	}
	return rf
}

// countInRange counts the view's entries with lo ≤ key ≤ hi — the bound
// by which a delta can stretch a limited range's snapshot demand (every
// tombstone may mask one snapshot entry), so the kernel limit for a
// range with Limit L is L + countInRange. Invisible entries (atomic
// batches past the view's cut) are counted too: the bound only needs to
// be an over-estimate, and counting blind keeps the loop branch-free.
//
//isi:hotpath
func (dv deltaView) countInRange(lo, hi uint64) int {
	n := 0
	for _, part := range dv.parts {
		for i := lowerBound(part, lo); i < len(part) && part[i].key <= hi; i++ {
			n++
		}
	}
	return n
}

// mergeRange k-way merges one shard's snapshot scan with its delta
// parts over [lo, hi]: ascending key order, the first visible entry in
// part order supplying each key (parts are newest-first, so newest
// wins), tombstones masking the key entirely, truncated at limit when
// limit > 0. Entries hidden by the view's visibility cut (uncommitted
// or post-snapshot atomic batches) are skipped as if absent. snap must
// be sorted and already within [lo, hi] (the kernel guarantees both).
// Entries are appended to out (normally nil) and returned.
//
//isi:hotpath
func mergeRange(dv deltaView, snap []native.Pair, lo, hi uint64, limit int, out []RangeEntry) []RangeEntry {
	parts := dv.parts
	pos := make([]int, len(parts)) //isi:allow-alloc(per-range merge cursors: O(parts) ints, dwarfed by the scan they steer)
	for p, part := range parts {
		pos[p] = lowerBound(part, lo)
	}
	si := 0
	for limit <= 0 || len(out) < limit {
		bestKey, any := uint64(0), false
		for p, part := range parts {
			if pos[p] < len(part) && part[pos[p]].key <= hi && (!any || part[pos[p]].key < bestKey) {
				bestKey, any = part[pos[p]].key, true
			}
		}
		if si < len(snap) && (!any || snap[si].Key < bestKey) {
			bestKey, any = snap[si].Key, true
		}
		if !any {
			break
		}
		// Consume every part's whole version chain at bestKey; the first
		// visible entry in part order (newest part, arrival-newest head)
		// supplies the key, everything older is shadowed.
		var e writeEntry
		fromDelta := false
		for p, part := range parts {
			for pos[p] < len(part) && part[pos[p]].key == bestKey {
				if !fromDelta && dv.visible(part[pos[p]]) {
					e, fromDelta = part[pos[p]], true
				}
				pos[p]++
			}
		}
		if si < len(snap) && snap[si].Key == bestKey {
			if !fromDelta {
				out = append(out, RangeEntry{Key: snap[si].Key, Code: snap[si].Code}) //isi:allow-alloc(merged entries are the batch's caller-owned output)
			}
			si++
		}
		if fromDelta && !e.del {
			out = append(out, RangeEntry{Key: e.key, Code: e.val}) //isi:allow-alloc(caller-owned output, as above)
		}
	}
	return out
}
