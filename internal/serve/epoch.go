package serve

import (
	"math"
	"time"

	"repro/internal/native"
	"repro/internal/obs"
)

// This file is the epoch machinery that makes the service read-write
// without ever blocking the probe hot path on a write, or the write path
// on a merge. Shards accumulate writes in their sorted delta (delta.go);
// when the delta reaches the rebuild threshold the shard freezes the
// committed prefix into the frozen generation and keeps writing. The
// freeze starts a merge of that generation into the current epoch's
// columns (native.MergeCursor: pure host CPU over immutable inputs,
// building the merged column's page sample as it goes), and the shard
// runs it itself, in bounded steps: every write it applies advances the
// merge by mergeStep output entries, and an idle shard advances it by
// idleMergeChunk between messages. The step is sized so the merge ends
// no later than the write that could trigger the next freeze, so at most
// one generation is ever frozen, on any schedule and any core count —
// the bound is arithmetic, not a race against another goroutine. The
// shard installs the result as soon as it sees the merge end: in the
// write that finished it, or, when idle steps finished it, with the next
// message. The next epoch's index is the current one with the merged
// columns swapped in, published through an atomic epoch-snapshot
// pointer, so an install is a pointer swap.
//
// Installed epochs are multi-versioned: the shard retains epochStates in
// a shard-local ring, and a reader pinned at an older commit horizon
// (Snapshot / WithSnapshotReads) steps back through the ring — replaying
// each epoch's absorbed generation on the way — until it finds an epoch
// whose upTo fence its horizon can see. Retention is by pin: the ring
// keeps exactly the epochs a live pin can step back to, so a shard with
// no pin holds only its current epoch. Installs never wait on in-flight
// drains and drains never block installs.
//
// Merges write into recycled memory (colmem.go): the shard keeps one
// spare column set, the set of an epoch reclaim dropped, and the next
// freeze merges into it, replacing it by a larger one only when the
// merge's bound exceeds it. Without a pin a shard therefore holds two
// column sets: the current epoch's and the spare.

// spareGens is the headroom a newly allocated spare gets over the merge
// that needs it, in generations of the rebuild threshold: a merge
// lengthens the column by at most its flattened generation, which a
// freeze cuts at the threshold (plus any uncommitted atomic entries), so
// a growing column merges about spareGens/2 more times into each of its two
// sets before one is replaced.
const spareGens = 8

// idleMergeChunk is how many output entries an idle shard (empty queue)
// merges before it checks its queue again: one page of output, so a
// message that arrives mid-chunk waits a few microseconds at most.
const idleMergeChunk = native.PageKeys

// epochState is one published snapshot: the index over the merged
// dictionary column. Immutable after publication; the shard goroutine
// replaces the whole struct at install time and concurrent readers
// (Stats) only load the pointer.
type epochState struct {
	// seq increments per install; seq 0 is the domain New was built over.
	seq uint64
	// idx is the epoch's index; its table and codes columns are also the
	// merge input of the next rebuild.
	idx index
	// upTo is the visibility fence: the highest atomic-batch seq baked
	// into this epoch's column (monotone across installs). A reader
	// pinned below upTo cannot use this epoch — it steps back to the
	// previous retained epoch and replays absorbed instead.
	upTo uint64
	// absorbed is the frozen generation this epoch's merge consumed — the
	// replay log for pinned readers on the previous epoch. Dropped with
	// the epoch when the retained ring trims it.
	absorbed []writeEntry
	// cols is the column memory idx's table, codes and top view; it
	// becomes the shard's spare (or is freed) when reclaim drops the
	// epoch.
	cols colSet
}

// maybeRebuild freezes the live delta's committed prefix into the frozen
// generation when the delta has reached the threshold, and starts its
// merge. A merge still in flight at that point is finished first,
// synchronously, and counted as a write stall; the step arithmetic
// (startMerge) keeps that from happening. Shard goroutine only.
func (sh *shard) maybeRebuild() {
	if sh.rebuildAt <= 0 || len(sh.delta) < sh.rebuildAt {
		return
	}
	committed, uncommitted := splitCommitted(sh.delta, sh.hz.Load())
	if len(committed) == 0 {
		// Every entry belongs to an uncommitted atomic batch: nothing can
		// be frozen yet. The delta keeps growing past the threshold until
		// a batch commits — the degenerate case, bounded by the largest
		// in-flight atomic batch.
		return
	}
	if sh.frozen != nil {
		sh.met.recordWriteStall()
		sh.stepMerge(math.MaxInt)
	}
	sh.delta = uncommitted
	sh.startMerge(committed)
}

// startMerge freezes gen and starts its merge with the current epoch's
// columns into the spare set, growing the spare first when the merge's
// bound exceeds it. The merge emits at most m entries (its Bound: the
// column's length plus the flattened generation's), and the live delta
// restarts at u = len(sh.delta) entries (the uncommitted ones
// splitCommitted kept), so at least T − u writes land before the delta
// can reach the threshold T again. Each of them advances the merge by
// ⌈m / max(1, T − u)⌉ entries, which ends it by the last of them. Shard
// goroutine only.
func (sh *shard) startMerge(gen []writeEntry) {
	ep := sh.epoch.Load()
	keys, vals, del, upTo := flattenGen(gen)
	sh.frozen, sh.frozenUpTo = gen, upTo
	m := len(ep.idx.table) + len(keys)
	if !sh.spare.holds(m) {
		sh.spare.free()
		sh.spare = newColSet(m + spareGens*sh.rebuildAt)
	}
	sh.merge = native.StartMerge(ep.idx.table, ep.idx.codes, keys, vals, del, sh.spare.keys, sh.spare.codes, sh.spare.top)
	writes := max(1, sh.rebuildAt-len(sh.delta))
	sh.mergeStep = (m + writes - 1) / writes
	sh.met.setGenDepth(1)
	sh.met.setColumnBytes(sh.columnBytes())
	sh.ring.Record(obs.SpanMergeStart, sh.id, ep.seq+1, len(gen), int64(m))
}

// stepMerge advances the in-flight merge, if any, by n output entries
// and installs its result if it is complete (n = 0 only installs a merge
// that idle steps finished). Shard goroutine only.
//
//isi:hotpath
func (sh *shard) stepMerge(n int) {
	if sh.frozen == nil || !sh.merge.Step(n) {
		return
	}
	//isi:allow-alloc(epoch install is the rebuild pause: one epochState and one ring slot per rebuild, not per write)
	sh.install()
}

// install publishes the completed merge: swap the merged columns into a
// copy of the current index (the build side and the drain slots carry
// over), hand the spare they lie in to the new epoch, swap the epoch
// pointer, retire the frozen generation into the new epoch's replay log,
// append the epoch to the retained ring, and reclaim past epochs no pin
// still needs. Shard goroutine only.
func (sh *shard) install() {
	pause := sh.met.beginRebuild()
	old := sh.epoch.Load()
	keys, vals, top := sh.merge.Result()
	ep := &epochState{seq: old.seq + 1, idx: old.idx, upTo: max(old.upTo, sh.frozenUpTo), absorbed: sh.frozen, cols: sh.spare}
	ep.idx.table, ep.idx.codes, ep.idx.top = keys, vals, top
	sh.ring.Record(obs.SpanMergeDone, sh.id, ep.seq, len(sh.frozen), int64(len(keys)))
	sh.epoch.Store(ep)
	sh.retained = append(sh.retained, ep)
	sh.spare = colSet{}                             // ep's now
	sh.frozen, sh.merge = nil, native.MergeCursor{} // drop the cursor's references to the inputs
	sh.reclaim()
	sh.met.setRetained(len(sh.retained))
	sh.met.setColumnBytes(sh.columnBytes())
	sh.met.endRebuild(pause, ep.seq, len(sh.delta))
	sh.met.setGenDepth(0)
	sh.ring.Record(obs.SpanInstall, sh.id, ep.seq, len(sh.delta), int64(time.Since(pause)))
}

// reclaim trims the retained-epoch ring to the epochs a live snapshot
// pin can step back to, dropping the rest oldest-first; with no pin only
// the current epoch (the last entry) stays. A pin at horizon S needs the
// newest retained epoch with upTo <= S and every epoch after it (their
// absorbed generations are its replay log) — every pin satisfies upTo
// <= S for the epoch that was current when it pinned, and pin
// registration is ordered against minPin, so that epoch is never trimmed
// under it. The dropped epochs' column sets are recycled. Shard
// goroutine only.
func (sh *shard) reclaim() {
	keep := len(sh.retained) - 1
	minPin := sh.pins.minPin()
	for keep > 0 && sh.retained[keep].upTo > minPin {
		keep--
	}
	if keep == 0 {
		return
	}
	for _, ep := range sh.retained[:keep] {
		sh.recycle(ep.cols)
	}
	n := copy(sh.retained, sh.retained[keep:])
	clear(sh.retained[n:])
	sh.retained = sh.retained[:n]
}

// recycle takes the column set of an epoch reclaim dropped: the larger of
// it and the spare stays the spare, and the other is freed. Shard
// goroutine only.
func (sh *shard) recycle(c colSet) {
	if c.bytes() < sh.spare.bytes() {
		c.free()
		return
	}
	sh.spare.free()
	sh.spare = c
}

// columnBytes is the key and code memory the shard holds: every retained
// epoch's column set and the spare (the in-flight merge's output while
// one runs).
func (sh *shard) columnBytes() int64 {
	n := sh.spare.bytes()
	for _, ep := range sh.retained {
		n += ep.cols.bytes()
	}
	return n
}

// freeColumns frees every column set the shard holds. Close calls it once
// the shard goroutine has exited; the retained epochs' views are cleared
// with their sets, so a use after Close finds empty columns, not unmapped
// memory.
func (sh *shard) freeColumns() {
	for _, ep := range sh.retained {
		ep.cols.free()
		ep.idx.table, ep.idx.codes, ep.idx.top = nil, nil, nil
	}
	sh.spare.free()
	sh.met.setColumnBytes(0)
}

// viewAt builds the (epoch, delta view) pair a drain at read horizon
// `at` probes: the live delta, then the frozen generation, then — only
// for a pinned reader whose horizon predates the current epoch's fence —
// each too-new epoch's absorbed generation replayed while stepping back
// through the retained ring. Latest readers (at == current
// horizon) never enter the walk: the current epoch's upTo never exceeds
// the commit horizon. Shard goroutine only; the returned view aliases
// shard state and is valid until the next write or install.
//
//isi:hotpath
func (sh *shard) viewAt(at uint64) (*epochState, deltaView) {
	parts := sh.viewParts[:0]
	if len(sh.delta) > 0 {
		parts = append(parts, sh.delta) //isi:allow-alloc(view headers reuse shard scratch; growth amortizes across batches)
	}
	if sh.frozen != nil {
		parts = append(parts, sh.frozen) //isi:allow-alloc(scratch growth, as above)
	}
	ep := sh.retained[len(sh.retained)-1]
	for i := len(sh.retained) - 1; i > 0 && ep.upTo > at; i-- {
		parts = append(parts, ep.absorbed) //isi:allow-alloc(scratch growth, as above; pinned-reader walk only)
		ep = sh.retained[i-1]
	}
	sh.viewParts = parts
	return ep, deltaView{at: at, parts: parts}
}
