package serve

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coro"
	"repro/internal/native"
	"repro/internal/nativejoin"
	"repro/internal/obs"
)

// shard owns one hash partition of the key domain: an epoch-snapshot
// index, a sorted write delta, a sub-batch queue, an adaptive group-size
// controller, and metrics. One goroutine per shard drains its queue
// through the interleaved kernels — the multicore layout of Shahvarani &
// Jacobsen's index-based stream join, with the paper's coroutine
// interleaving inside each core — and is the only writer of the shard's
// delta and epoch pointer, so reads and writes serve from one scheduler
// without locks on the probe path (the CoroBase argument).
type shard struct {
	id int
	in chan shardMsg
	// epoch is the published snapshot: loaded once per drained message,
	// swapped only by this shard's goroutine at install time, read
	// concurrently by Stats. A message therefore probes exactly one
	// (snapshot, delta) pair — no torn views inside a batch segment.
	epoch atomic.Pointer[epochState]
	ctl   *controller
	met   *shardMetrics

	// Write state (shard goroutine only, except the pendingInstall slot
	// the epoch manager fills).
	delta     []writeEntry   // live sorted write buffer
	gens      [][]writeEntry // frozen generations queued for merge, oldest→newest
	merging   int            // generations covered by the in-flight merge; 0 = idle
	rebuildAt int            // freeze threshold; <= 0 disables rebuilds
	em        *epochManager
	// retained is the multi-version epoch ring, oldest→newest; the last
	// entry is always the current epoch. Shard goroutine only — pinned
	// readers drain on this goroutine too, so no locking.
	retained       []*epochState
	pendingInstall atomic.Pointer[installMsg]
	// hz/pins alias the service's commit horizon and snapshot pin set.
	hz   *atomic.Uint64
	pins *pinSet
	// viewParts is the scratch part list viewAt rebuilds per drain run.
	viewParts [][]writeEntry

	// Point-path scratch, reused across sub-batches (shard-local).
	pt pointScratch

	// Range-path scratch: per-range snapshot pairs and kernel limits,
	// reused across range batches.
	rangePairs  [][]native.Pair
	rangeLimits []int

	// Observer wiring (observe.go); all nil when observation is off, so
	// every recording site costs one pointer check. ring is this shard's
	// lifecycle span ring; baseCtx/opCtx are the precomputed pprof label
	// contexts the run loop swaps between (base = subsystem+shard, opCtx =
	// base plus the op class).
	ring    *obs.SpanRing
	baseCtx context.Context
	opCtx   [nOpClasses]context.Context
}

// shardMsg is one unit of shard work: a point sub-batch (sub), a
// contiguous segment [lo, hi) of a vectorized batch's partitioned key
// (or op) column (bf), or a whole range batch (rf — every shard scans
// every range, so range messages carry no segment bounds). Sent by
// value, so vectorized dispatch allocates nothing per shard. id is the
// service-wide batch correlation id stamped into the span rings (0 when
// observation is off).

type shardMsg struct {
	sub    []*Future
	bf     *BatchFuture
	rf     *RangeFuture
	lo, hi int
	id     uint64
}

// run drains point sub-batches, vectorized segments, and range batches
// until the queue closes, installing any completed rebuild between
// messages.
//
//isi:hotpath
func (sh *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	if sh.baseCtx != nil {
		pprof.SetGoroutineLabels(sh.baseCtx)
		//isi:allow-ctx(pprof label reset to the empty root at goroutine exit, not a request context)
		defer pprof.SetGoroutineLabels(context.Background())
	}
	for msg := range sh.in {
		//isi:allow-alloc(epoch install is the rebuild pause: index construction and epoch bookkeeping run between batches, off the per-op path)
		sh.installPending()
		switch {
		case msg.rf != nil:
			sh.setLabels(sh.opCtx[classRange])
			sh.drainRange(msg.rf, msg.id)
		case msg.bf != nil:
			cls := classOf(msg.bf.kind)
			if msg.bf.ops != nil {
				cls = classWrite
			}
			sh.setLabels(sh.opCtx[cls])
			sh.drainSegment(msg.bf, msg.lo, msg.hi, msg.id)
		default:
			// Point sub-batches mix op kinds; attribute them to the base
			// (subsystem, shard) label set.
			sh.setLabels(sh.baseCtx)
			sh.drainPoint(msg.sub, msg.id)
		}
	}
}

// applyOp applies one write to the live delta and returns its
// acknowledgement result. seq is 0 for a plain (immediately visible)
// write, or the atomic batch tag the entry becomes visible at. Shard
// goroutine only.
//
//isi:hotpath
func (sh *shard) applyOp(op Op, seq uint64) Result {
	switch op.Kind {
	case OpInsert:
		sh.delta = applyWriteEntry(sh.delta, op.Key, op.Val, false, seq)
		sh.met.recordInsert(len(sh.delta))
		sh.maybeRebuild()
		return Result{Code: op.Val, Found: true}
	default: // OpDelete
		sh.delta = applyWriteEntry(sh.delta, op.Key, 0, true, seq)
		sh.met.recordDelete(len(sh.delta))
		sh.maybeRebuild()
		return Result{Code: NotFound}
	}
}

// drainPoint resolves one point sub-batch. Requests whose context is
// already cancelled are dropped before the kernel runs (reads) or the
// delta is touched (writes) — marked, never applied, counted — and
// complete with a Dropped result. Live ops execute in submission order:
// maximal runs of reads drain interleaved through the kernels, and each
// write applies to the delta at its position between runs, so a lookup
// submitted after an insert in the same sub-batch observes it.
//
//isi:hotpath
func (sh *shard) drainPoint(sub []*Future, id uint64) {
	sh.ring.Record(obs.SpanDrainStart, sh.id, id, len(sub), 0)
	var dropped uint64
	for _, f := range sub {
		if f.ctx != nil && f.ctx.Err() != nil {
			f.dropped = true
			dropped++
		}
	}
	g := sh.ctl.Group()
	var kernelBusy, writeBusy time.Duration
	var reads, writes int
	for i := 0; i < len(sub); {
		f := sub[i]
		if f.dropped {
			i++
			continue
		}
		if f.op.Kind.IsWrite() {
			t0 := time.Now()
			f.res = sh.applyOp(f.op, 0)
			writeBusy += time.Since(t0)
			writes++
			i++
			continue
		}
		// Maximal run of live reads: delta state is frozen for the run's
		// drain (writes only apply between runs).
		j := i + 1
		for j < len(sub) && (sub[j].dropped || !sub[j].op.Kind.IsWrite()) {
			j++
		}
		t0 := time.Now()
		reads += sh.drainReadRun(sub[i:j], g)
		kernelBusy += time.Since(t0)
		i = j
	}
	sh.ring.Record(obs.SpanKernelDone, sh.id, id, reads, int64(kernelBusy))
	now := time.Now()
	var joins, hits uint64
	for _, f := range sub {
		if f.dropped {
			f.res = Result{Code: NotFound, Dropped: true}
			if f.op.Kind == OpJoin {
				f.jres = JoinResult{Code: NotFound, Dropped: true}
			}
		} else {
			if f.op.Kind == OpJoin {
				joins++
				hits += uint64(f.jres.Hits)
			}
			sh.met.recordLatency(classOf(f.op.Kind), now.Sub(f.enq))
		}
		close(f.done)
		if f.snapRef != nil {
			f.snapRef.done()
		}
	}
	sh.ring.Record(obs.SpanComplete, sh.id, id, len(sub), int64(dropped))
	// Kernel metrics (batch size, group, busy, drain rate) count only
	// kernel drains: a write run never entered the lookup kernel, so it
	// is recorded on the write side and must not dilute Group/AvgBatch/
	// Throughput with a group size it never used.
	if reads > 0 {
		sh.met.recordBatch(reads, g, kernelBusy)
		sh.met.recordJoins(joins, hits)
		sh.ctl.observe(reads, kernelBusy)
	}
	if writes > 0 {
		sh.met.recordWriteBusy(writeBusy)
	}
	sh.met.recordDropped(dropped)
}

// drainReadRun drains one run of point reads (dropped futures in the
// run are left out of the gathered key column) against the epoch
// snapshot and delta view of the run's read horizon, completing their
// result fields. The view is built per run, not per
// sub-batch: a write between runs can install a pending epoch, and a
// read after it must probe the post-install pair or it would miss the
// writes the merge just retired from the delta. It returns the number of
// live reads drained.
//
//isi:hotpath
func (sh *shard) drainReadRun(run []*Future, g int) int {
	at := run[0].snapSeq // uniform per sealed admission batch
	if at == latestSeq {
		at = sh.hz.Load()
	}
	ep, dv := sh.viewAt(at)
	keys, out, live := sh.pt.gather(run)
	ep.idx.drainBatch(dv, live, keys, g, out)
	clear(live) // drop future references between batches
	return len(live)
}

// pointScratch is the point path's gather scratch: a run's live futures
// compacted into the key column the batch kernels take, and the result
// column they fill. Shard-local, reused across runs.
type pointScratch struct {
	keys []uint64
	out  []Result
	live []*Future
}

// gather compacts run's live (not dropped) futures and their keys; out
// has one slot per live future. The caller clears live when done.
//
//isi:hotpath
func (ps *pointScratch) gather(run []*Future) (keys []uint64, out []Result, live []*Future) {
	n := 0
	for _, f := range run {
		if !f.dropped {
			n++
		}
	}
	if cap(ps.keys) < n {
		ps.keys = make([]uint64, n)  //isi:allow-alloc(cap-guarded growth of the shard's drain scratch to a new max run size)
		ps.out = make([]Result, n)   //isi:allow-alloc(grows with keys above)
		ps.live = make([]*Future, n) //isi:allow-alloc(grows with keys above)
	}
	keys, live = ps.keys[:0], ps.live[:0]
	for _, f := range run {
		if !f.dropped {
			keys = append(keys, f.op.Key) //isi:allow-alloc(appends stay within the cap-guarded scratch sized above)
			live = append(live, f)        //isi:allow-alloc(within scratch cap, as above)
		}
	}
	return keys, ps.out[:n], live
}

// drainSegment resolves one shard segment of a vectorized batch, writing
// results (and join outcomes and streamed matches) straight into the
// batch's caller-visible slices. A segment whose context is already
// cancelled is dropped whole: it never reaches the kernel or the delta.
// Write segments (ApplyBatch) apply in op order as one unit — other
// batches on this shard observe all of the segment's writes or none.
// Atomic write segments (ApplyBatchAtomic) skip the cancellation fast
// path: their context was checked at admission, and dropping one shard's
// segment after admission would tear the batch and wedge the commit
// queue behind its never-arriving seq.
//
//isi:hotpath
func (sh *shard) drainSegment(bf *BatchFuture, lo, hi int, id uint64) {
	n := hi - lo
	sh.ring.Record(obs.SpanDrainStart, sh.id, id, n, 0)
	if bf.ctx != nil && bf.ctx.Err() != nil && bf.atomicSeq == 0 {
		for i := lo; i < hi; i++ {
			bf.res[i] = Result{Code: NotFound, Dropped: true}
		}
		if bf.jres != nil {
			for i := lo; i < hi; i++ {
				bf.jres[i] = JoinResult{Code: NotFound, Dropped: true}
			}
		}
		sh.met.recordDropped(uint64(n))
		sh.ring.Record(obs.SpanComplete, sh.id, id, n, int64(n))
		bf.segDone(uint64(n))
		return
	}
	g := sh.ctl.Group()
	t0 := time.Now()
	var joins, hits uint64
	if bf.ops != nil {
		for i := lo; i < hi; i++ {
			bf.res[i] = sh.applyOp(bf.ops[i], bf.atomicSeq)
		}
	} else {
		at := bf.snapSeq
		if at == latestSeq {
			at = sh.hz.Load()
		}
		ep, dv := sh.viewAt(at)
		ep.idx.drainSegment(dv, bf, sh.id, lo, hi, g)
		if bf.kind == OpJoin {
			joins = uint64(n)
			for i := lo; i < hi; i++ {
				hits += uint64(bf.jres[i].Hits)
			}
		}
	}
	busy := time.Since(t0)
	sh.ring.Record(obs.SpanKernelDone, sh.id, id, n, int64(busy))
	if bf.ops != nil {
		// A pure write segment never touched the lookup kernel: its time
		// is write-apply time, not kernel drain time, and it must not be
		// attributed to a group size it never used.
		sh.met.recordLatencyN(classWrite, time.Since(bf.enq), uint64(n))
		sh.met.recordWriteBusy(busy)
	} else {
		sh.met.recordLatencyN(classOf(bf.kind), time.Since(bf.enq), uint64(n))
		sh.met.recordBatch(n, g, busy)
		sh.met.recordJoins(joins, hits)
		sh.ctl.observe(n, busy)
	}
	sh.ring.Record(obs.SpanComplete, sh.id, id, n, 0)
	bf.segDone(0)
}

// drainRange scans every range of one fanned-out range batch against
// this shard's (snapshot, delta) pair: the kernel collects the
// snapshot's in-range pairs (interleaved seeks), mergeRange folds the
// write deltas in (newest wins, tombstones mask), and the sorted
// per-range entries park on the future for the caller's k-way merge. A
// batch whose context is already cancelled is dropped whole, like a
// vectorized segment.
//
//isi:hotpath
func (sh *shard) drainRange(rf *RangeFuture, id uint64) {
	nops := len(rf.ops)
	sh.ring.Record(obs.SpanDrainStart, sh.id, id, nops, 0)
	if rf.ctx != nil && rf.ctx.Err() != nil {
		sh.met.recordDropped(uint64(nops))
		sh.ring.Record(obs.SpanComplete, sh.id, id, nops, int64(nops))
		rf.segDone(uint64(nops))
		return
	}
	at := rf.snapSeq
	if at == latestSeq {
		at = sh.hz.Load()
	}
	ep, dv := sh.viewAt(at)
	g := sh.ctl.Group()
	if cap(sh.rangePairs) < nops {
		// Grow with carry-over: the old headers hold the per-range pair
		// buffers earlier batches already grew, which is the whole point
		// of the scratch.
		grown := make([][]native.Pair, nops) //isi:allow-alloc(cap-guarded growth of the range-scratch headers to a new max fan-out)
		copy(grown, sh.rangePairs)
		sh.rangePairs = grown
		sh.rangeLimits = make([]int, nops) //isi:allow-alloc(grows with the headers above)
	}
	pairs, limits := sh.rangePairs[:nops], sh.rangeLimits[:nops]
	for r, op := range rf.ops {
		pairs[r] = pairs[r][:0]
		limits[r] = 0
		if op.Limit > 0 {
			// Every in-range delta entry may mask one snapshot entry, so
			// the kernel must over-fetch by that bound for the merged
			// result to still reach Limit.
			limits[r] = op.Limit + dv.countInRange(op.Key, op.Hi)
		}
	}
	t0 := time.Now()
	ep.idx.scanRanges(rf.ops, limits, g, pairs)
	// Busy is kernel time only: the host-side delta merge below is
	// O(emitted entries) and would dilute the drain-rate metrics on wide
	// scans, exactly like the write-apply time recordBatch now excludes.
	busy := time.Since(t0)
	sh.ring.Record(obs.SpanKernelDone, sh.id, id, nops, int64(busy))
	res := make([][]RangeEntry, nops) //isi:allow-alloc(merged results are handed to the caller on the future; O(ranges) per batch, not per entry)
	var entries uint64
	for r, op := range rf.ops {
		res[r] = mergeRange(dv, pairs[r], op.Key, op.Hi, op.Limit, nil)
		entries += uint64(len(res[r]))
	}
	rf.ents[sh.id] = res
	sh.met.recordLatencyN(classRange, time.Since(rf.enq), uint64(nops))
	sh.met.recordBatch(nops, g, busy)
	sh.met.recordRanges(uint64(nops), entries)
	sh.ctl.observe(nops, busy)
	sh.ring.Record(obs.SpanComplete, sh.id, id, nops, 0)
	rf.segDone(0)
}

// index is what an epoch serves through: the shard's sorted key column,
// its parallel code column and its page sample, searched by a two-level
// search. Stage 1 searches the page sample (top, native.Sample: every
// 512th key, cache-resident) for the whole batch in lockstep — no
// suspension — and parks each key's page window in its result slot.
// Stage 2 is the frame-coroutine binary search of internal/native inside
// that one 4 KB page, one SearchCursor per scheduler slot held by value
// and resumed through its concrete Step (coro.DrainFlat), so a key
// suspends only on the ≤ 9 levels whose loads can miss; the steady-state
// drain allocates nothing. Delta-resolved keys complete at start time
// through the scheduler's declined-start contract, so they never occupy
// a slot; everything else falls through to the main search — the
// delta-then-main composite.
//
// jt is the shard's build-side partition on a join service, where the
// join drains (join.go) pipe the codes stage 1 resolves into its hash
// chains; nil on a lookup-only service, where no drain runs stage 2.
// jt and the drain slots are the shard's for its lifetime: an install
// copies the current index with the merged columns swapped in.
type index struct {
	table []uint64
	codes []uint32
	// top is table's page sample, built where the column is built (New's
	// partition pass, the epoch manager's merge) and never on the shard
	// goroutine.
	top   []uint64
	jt    *nativejoin.Table
	slots *drainSlots
}

// drainSlots is the scheduler state a shard's drains reuse across every
// batch: one frame per scheduler slot for each kernel — the dictionary
// search, the range scan, and the join's chain walk.
type drainSlots struct {
	search coro.FlatSlots[native.SearchCursor]
	ranges coro.FlatSlots[native.RangeCursor]
	probes coro.FlatSlots[probeFrame]
}

func newIndex(table []uint64, codes []uint32, top []uint64, jt *nativejoin.Table) index {
	return index{table: table, codes: codes, top: top, jt: jt, slots: new(drainSlots)}
}

// lookupBatch resolves keys into out, each probed delta-then-main
// against dv, interleaved at group.
//
//isi:hotpath
func (x *index) lookupBatch(dv deltaView, keys []uint64, group int, out []Result) {
	if len(x.table) == 0 && dv.empty() {
		for i := range out {
			out[i] = Result{Code: NotFound}
		}
		return
	}
	d := lookupDrain{x: x, dv: dv, keys: keys, out: out}
	native.SampleWindows(x.top, keys, d.window)
	coro.DrainFlat(&x.slots.search, len(keys), group, d.start, d.sink)
}

// lookupDrain is one lookupBatch call's two stages over its columns:
// window takes stage 1's answer, start and sink are stage 2's DrainFlat
// callbacks. It lives on lookupBatch's stack, and its method values are
// called, never retained.
type lookupDrain struct {
	x    *index
	dv   deltaView
	keys []uint64
	out  []Result
}

// window parks key i's page window in its result slot's Code, until
// start (which overwrites the slot on a delta answer) or sink (which
// reads it back) consumes it.
//
//isi:hotpath
func (d *lookupDrain) window(i, w int) { d.out[i].Code = uint32(w) }

// start answers key i from the delta when the delta resolves it (a
// declined start), else begins its search inside its page window.
//
//isi:hotpath
func (d *lookupDrain) start(c *native.SearchCursor, i int) bool {
	if !d.dv.empty() {
		if v, oc := d.dv.lookup(d.keys[i]); oc != deltaMiss {
			if oc == deltaHit {
				d.out[i] = Result{Code: v, Found: true}
			} else {
				d.out[i] = Result{Code: NotFound}
			}
			return false
		}
	}
	if len(d.x.table) == 0 {
		d.out[i] = Result{Code: NotFound}
		return false
	}
	*c = native.StartSearch(native.Window(d.x.table, int(d.out[i].Code)), d.keys[i])
	return true
}

// sink shifts the in-window answer back by the window's offset and
// resolves key i's code.
//
//isi:hotpath
func (d *lookupDrain) sink(i, low int) {
	low += int(d.out[i].Code) * native.PageKeys
	if d.x.table[low] == d.keys[i] {
		d.out[i] = Result{Code: d.x.codes[low], Found: true}
	} else {
		d.out[i] = Result{Code: NotFound}
	}
}

// scanRanges scans the column for each range op (ops[i] covers [Key,
// Hi]), appending up to limits[i] in-range (key, code) pairs in ascending
// key order to pairs[i] (limits[i] <= 0 is unbounded); the delta merge
// happens outside, in mergeRange. One native.RangeCursor per scheduler
// slot: seeks suspend per early-load round, each scan completes in its
// final resume. An empty table or an inverted range emits nothing and
// never occupies a slot.
//
//isi:hotpath
func (x *index) scanRanges(ops []Op, limits []int, group int, pairs [][]native.Pair) {
	coro.DrainFlat(&x.slots.ranges, len(ops), group,
		//isi:allow-alloc(two closures per batch over the batch's columns, called and not retained by DrainFlat; O(1) per batch, not per range)
		func(c *native.RangeCursor, i int) bool {
			op := ops[i]
			if len(x.table) == 0 || op.Key > op.Hi {
				return false
			}
			*c = native.StartRangeScan(x.table, x.codes, op.Key, op.Hi, limits[i], &pairs[i])
			return true
		},
		//isi:allow-alloc(see the start closure above)
		func(int, int) {})
}
