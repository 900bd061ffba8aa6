package serve

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/native"
	"repro/internal/obs"
)

// This file is the epoch machinery that makes the service read-write
// without ever blocking the probe hot path on a write — and, since the
// multi-version rework, without ever blocking the write path on a merge
// either. Shards accumulate writes in their sorted delta (delta.go);
// when the delta reaches the rebuild threshold the shard freezes the
// committed prefix into a new generation and keeps writing. If the
// background merge is idle it picks up every frozen generation at once;
// if one is already in flight the generation simply queues behind it —
// writes never park. The manager bulk-merges the flattened generations
// into the shard's dictionary column off the hot path (native.MergeSorted
// — pure host CPU, no shared mutable state) and parks the merged column
// in the shard's pending slot. The shard installs it between batches: it
// constructs the next backend index over the merged column (for the
// memsim backends this is the only part that must run on the shard
// goroutine, because the simulated engine is single-threaded) and
// publishes it through an atomic epoch-snapshot pointer.
//
// Installed epochs are multi-versioned: the shard retains the last few
// epochStates in a shard-local ring, and a reader pinned at an older
// commit horizon (Snapshot / WithSnapshotReads) steps back through the
// ring — replaying each epoch's absorbed generations on the way — until
// it finds an epoch whose upTo fence its horizon can see. Reclamation is
// grace-period style: the ring trims beyond the retention depth only
// past epochs no live pin still needs, so installs never wait on
// in-flight drains and drains never block installs.

// epochRetain is the grace-period depth: how many installed epochs a
// shard keeps beyond the current one before pin-aware trimming.
const epochRetain = 4

// maxGenBacklog is the degraded-mode fence: freezing a generation while
// this many are already queued behind an in-flight merge means the
// background manager has fallen far behind the write rate. The write
// still proceeds (nothing parks); the event only increments the
// WriteStalls counter so operators see the backlog.
const maxGenBacklog = 32

// genDonateDepth is the backlog depth at which a freeze donates its
// timeslice to the in-flight merge. Below it the write loop never
// yields mid-merge (the donation would stretch write latency for a
// merge that is keeping up anyway); above it the merge is losing the
// race for the core — on a small GOMAXPROCS box a tight synchronous
// write loop can starve the manager for a full preemption quantum per
// freeze, piling generations toward the degraded fence.
const genDonateDepth = 4

// epochState is one published snapshot: the merged dictionary column and
// the backend index built over it. Immutable after publication; the
// shard goroutine replaces the whole struct at install time and
// concurrent readers (Stats) only load the pointer.
type epochState struct {
	// seq increments per install; seq 0 is the domain New was built over.
	seq uint64
	// vals/codes are the merged sorted key column and its parallel value
	// column — the merge input for the next rebuild, and the probe table
	// of the native backends.
	vals  []uint64
	codes []uint32
	// idx serves lookup-only services; joinIdx (non-nil on a join
	// service) serves mixed lookup/join batches.
	idx     shardIndex
	joinIdx *nativeJoinIndex
	// upTo is the visibility fence: the highest atomic-batch seq baked
	// into this epoch's column (monotone across installs). A reader
	// pinned below upTo cannot use this epoch — it steps back to the
	// previous retained epoch and replays absorbed instead.
	upTo uint64
	// absorbed holds the frozen generations this epoch's merge consumed,
	// newest-first — the replay log for pinned readers on the previous
	// epoch. Dropped with the epoch when the retained ring trims it.
	absorbed [][]writeEntry
}

// rebuildJob is one batch of frozen generations awaiting merge, tagged
// with the epoch snapshot it merges into.
type rebuildJob struct {
	sh    *shard
	seq   uint64
	vals  []uint64
	codes []uint32
	// gens are the frozen generations to absorb, oldest→newest. The
	// outer slice is the job's own; the inner slices are shared with the
	// shard but immutable once frozen.
	gens [][]writeEntry
}

// installMsg is a completed merge parked for the owning shard: the
// merged column and its page sample, the flattened generation batch it
// absorbed (the tree backend replays it through csbtree.BulkMerge at
// install), the raw generations for the retained ring's pinned-reader
// replay, and the visibility fence they carry.
type installMsg struct {
	seq      uint64
	vals     []uint64
	codes    []uint32
	top      []uint64 // vals' page sample (native.Sample), built with the merge
	flat     []writeEntry
	absorbed [][]writeEntry
	upTo     uint64
}

// epochManager is the service-wide background rebuilder: one goroutine
// draining rebuild jobs in arrival order, so concurrent shard rebuilds
// serialize and background merge work is bounded to one core. Each shard
// has at most one job outstanding (generations queue locally until the
// in-flight merge installs), so a jobs buffer of Shards makes enqueue
// non-blocking.
type epochManager struct {
	jobs chan rebuildJob
	wg   sync.WaitGroup
}

func newEpochManager(shards int) *epochManager {
	em := &epochManager{jobs: make(chan rebuildJob, shards)}
	em.wg.Add(1)
	go em.run()
	return em
}

func (em *epochManager) run() {
	defer em.wg.Done()
	for j := range em.jobs {
		flat, upTo := flattenGens(j.gens)
		keys, vals, del := deltaColumns(flat)
		mergedVals, mergedCodes := native.MergeSorted(j.vals, j.codes, keys, vals, del)
		// The sample is built here, off the shard goroutine, like the
		// column it samples: an install stays a pointer swap.
		top := native.Sample(mergedVals)
		// Stamped into the owning shard's ring from this goroutine — the
		// ring's mutex exists exactly for this cross-goroutine writer.
		j.sh.ring.Record(obs.SpanMergeDone, j.sh.id, j.seq, len(flat), int64(len(mergedVals)))
		// Reverse to newest-first: the order a pinned reader replays them.
		absorbed := make([][]writeEntry, len(j.gens))
		for i, g := range j.gens {
			absorbed[len(j.gens)-1-i] = g
		}
		// Park the result; the shard installs it between batches. A shard
		// never has two rebuilds in flight, so the slot cannot clobber an
		// unconsumed install.
		j.sh.pendingInstall.Store(&installMsg{
			seq: j.seq, vals: mergedVals, codes: mergedCodes, top: top,
			flat: flat, absorbed: absorbed, upTo: upTo,
		})
	}
}

// close stops the manager after in-flight jobs finish. Results parked
// after the shards exited are simply never installed — their writes
// remain visible through the frozen generations the shards probed to
// the end.
func (em *epochManager) close() {
	close(em.jobs)
	em.wg.Wait()
}

// maybeRebuild freezes the live delta's committed prefix into a new
// generation when the delta has reached the threshold. Never parks: if a
// merge is already in flight the generation queues behind it (a landed
// install is folded in first so the pipeline keeps draining mid-segment),
// and only a backlog beyond maxGenBacklog is recorded — as a degraded-
// mode WriteStalls tick, not a wait. Shard goroutine only.
func (sh *shard) maybeRebuild() {
	if sh.rebuildAt <= 0 || len(sh.delta) < sh.rebuildAt {
		return
	}
	sh.installPending()
	if len(sh.delta) < sh.rebuildAt {
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
	sh.delta = uncommitted
	sh.gens = append(sh.gens, committed) //isi:allow-alloc(generation freeze: one header per rebuild threshold crossing, not per write)
	sh.met.setGenDepth(len(sh.gens))
	if sh.merging > 0 && len(sh.gens) > maxGenBacklog {
		sh.met.recordWriteStall()
		sh.ring.Record(obs.SpanStallPark, sh.id, 0, len(sh.gens), 0)
	}
	if sh.merging > 0 && len(sh.gens) > genDonateDepth {
		runtime.Gosched()
	}
	sh.startMerge()
}

// startMerge hands every queued generation to the epoch manager as one
// job, if none is in flight. Shard goroutine only.
func (sh *shard) startMerge() {
	if sh.merging > 0 || len(sh.gens) == 0 || sh.rebuildAt <= 0 {
		return
	}
	ep := sh.epoch.Load()
	sh.merging = len(sh.gens)
	gens := make([][]writeEntry, sh.merging)
	copy(gens, sh.gens)
	n := 0
	for _, g := range gens {
		n += len(g)
	}
	sh.ring.Record(obs.SpanMergeStart, sh.id, ep.seq+1, n, int64(len(gens)))
	sh.em.jobs <- rebuildJob{sh: sh, seq: ep.seq + 1, vals: ep.vals, codes: ep.codes, gens: gens}
	// Donate the rest of the timeslice to the freshly-woken epoch
	// manager. Channel direct-handoff keeps a tight synchronous write
	// loop (submitter ↔ shard) on the processor indefinitely on a small
	// GOMAXPROCS box, and with parking gone nothing else ever blocks this
	// goroutine — without the yield the manager can sit runnable for a
	// full preemption quantum per job while generations pile up. Yielding
	// only on job handoff (not on every freeze) keeps the donation off
	// the refill path while a long merge is already running.
	runtime.Gosched()
}

// installPending publishes a completed rebuild, if one is parked:
// construct the backend index over the merged column (the rebuild pause
// — the only index work that runs on the serving goroutine), swap the
// epoch pointer, retire the absorbed generations, append the new epoch
// to the retained ring, and reclaim past epochs no pin still needs.
// Shard goroutine only, between batches.
func (sh *shard) installPending() {
	im := sh.pendingInstall.Swap(nil)
	if im == nil {
		return
	}
	pause := sh.met.beginRebuild()
	old := sh.epoch.Load()
	ep := &epochState{
		seq: im.seq, vals: im.vals, codes: im.codes,
		upTo: max(old.upTo, im.upTo), absorbed: im.absorbed,
	}
	if old.joinIdx != nil {
		ep.joinIdx = old.joinIdx.rebuild(im.vals, im.codes, im.top)
	} else {
		ep.idx = old.idx.rebuild(im.vals, im.codes, im.top, im.flat)
	}
	sh.epoch.Store(ep)
	sh.retained = append(sh.retained, ep)
	// Drop the absorbed generations from the local queue; later freezes
	// (queued behind the in-flight merge) shift down.
	n := copy(sh.gens, sh.gens[sh.merging:])
	clear(sh.gens[n:])
	sh.gens = sh.gens[:n]
	sh.merging = 0
	sh.reclaim()
	sh.met.endRebuild(pause, im.seq, len(sh.delta))
	sh.met.setGenDepth(len(sh.gens))
	sh.ring.Record(obs.SpanInstall, sh.id, im.seq, len(sh.delta), int64(time.Since(pause)))
	sh.startMerge()
}

// reclaim trims the retained-epoch ring: epochs beyond the grace-period
// depth are dropped oldest-first, but never past one a live snapshot pin
// might still step back to. The current epoch (last entry) always stays.
// A pin at horizon S needs the newest retained epoch with upTo <= S —
// every pin satisfies upTo <= S for the epoch that was current when it
// pinned, and pin registration is ordered against minPin, so that epoch
// is never trimmed under it. Shard goroutine only.
func (sh *shard) reclaim() {
	keep := len(sh.retained) - epochRetain
	if keep <= 0 {
		return
	}
	minPin := sh.pins.minPin()
	for keep > 0 && sh.retained[keep].upTo > minPin {
		keep--
	}
	if keep == 0 {
		return
	}
	n := copy(sh.retained, sh.retained[keep:])
	clear(sh.retained[n:])
	sh.retained = sh.retained[:n]
	sh.met.setRetained(n)
}

// viewAt builds the (epoch, delta view) pair a drain at read horizon
// `at` probes: the live delta and queued generations newest-first, then
// — only for a pinned reader whose horizon predates the current epoch's
// fence — each too-new epoch's absorbed generations replayed while
// stepping back through the retained ring. Latest readers (at == current
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
	for i := len(sh.gens) - 1; i >= 0; i-- {
		parts = append(parts, sh.gens[i]) //isi:allow-alloc(scratch growth, as above)
	}
	ep := sh.retained[len(sh.retained)-1]
	for i := len(sh.retained) - 1; i > 0 && ep.upTo > at; i-- {
		parts = append(parts, ep.absorbed...) //isi:allow-alloc(scratch growth, as above; pinned-reader walk only)
		ep = sh.retained[i-1]
	}
	sh.viewParts = parts
	return ep, deltaView{at: at, parts: parts}
}
