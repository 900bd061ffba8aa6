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

	// Op-drain scratch, reused across read runs (shard-local).
	runs runScratch

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

// shardMsg is one unit of shard work: a contiguous segment [lo, hi) of
// a column's shard grouping (bf.perm), or a whole range batch (rf —
// every shard scans every range, so range messages carry no segment
// bounds). Sent by value, so dispatch allocates nothing per shard. id is
// the service-wide batch correlation id stamped into the span rings (0
// when observation is off).
type shardMsg struct {
	bf     *BatchFuture
	rf     *RangeFuture
	lo, hi int
	id     uint64
}

// run drains column segments and range batches until the queue closes,
// installing any completed rebuild between messages.
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
		default:
			// A key column is one op class; an op column mixes kinds and
			// takes the base (subsystem, shard) label set.
			labels := sh.baseCtx
			if msg.bf.ops == nil {
				labels = sh.opCtx[classOf(msg.bf.kind)]
			}
			sh.setLabels(labels)
			sh.drainOps(msg.bf, msg.lo, msg.hi, msg.id)
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

// drainOps executes one shard segment of a column in submission order.
// Drops come first: an op whose context is already cancelled is never
// probed and never applied, completes Dropped and is counted (a column
// shares one context, so it drops whole segments; an atomic column skips
// this — its context was checked at admission, and dropping one shard's
// segment would tear the batch and wedge the commit queue behind its
// seq). Then the live ops run in order: each maximal run of writes
// applies to the delta, and each maximal run of reads is gathered into
// one key column and drained interleaved through the kernels, so a read
// observes every write submitted before it. A key column's segment is
// one read run. The segment runs between messages, so other batches on
// this shard observe all of its writes or none.
//
//isi:hotpath
func (sh *shard) drainOps(bf *BatchFuture, lo, hi int, id uint64) {
	seg := bf.perm[lo:hi]
	sh.ring.Record(obs.SpanDrainStart, sh.id, id, len(seg), 0)
	var dropped uint64
	// A point op carries its own context; a column shares bf.ctx, checked
	// once per segment.
	colDone := bf.futs == nil && bf.atomicSeq == 0 && bf.ctx != nil && bf.ctx.Err() != nil
	if colDone || bf.futs != nil {
		for _, i := range seg {
			if colDone || bf.futs[i].ctx != nil && bf.futs[i].ctx.Err() != nil {
				bf.res[i] = Result{Code: NotFound, Dropped: true}
				if bf.jres != nil {
					bf.jres[i] = JoinResult{Code: NotFound, Dropped: true}
				}
				dropped++
			}
		}
	}
	g := sh.ctl.Group()
	var kernelBusy, writeBusy time.Duration
	var reads, writes int
	var joins, hits uint64
	for j := 0; j < len(seg); {
		if bf.res[seg[j]].Dropped {
			j++
			continue
		}
		// A maximal run of live ops on one side, write or read; dropped
		// ops inside it are skipped. A key column is one read run.
		w, k := false, len(seg)
		if bf.ops != nil {
			w, k = bf.ops[seg[j]].Kind.IsWrite(), j+1
			for k < len(seg) && (bf.res[seg[k]].Dropped || bf.ops[seg[k]].Kind.IsWrite() == w) {
				k++
			}
		}
		t0 := time.Now()
		if w {
			for _, i := range seg[j:k] {
				if !bf.res[i].Dropped {
					bf.res[i] = sh.applyOp(bf.ops[i], bf.atomicSeq)
					writes++
				}
			}
			writeBusy += time.Since(t0)
		} else {
			r, jn, h := sh.drainRun(bf, seg[j:k], g)
			reads, joins, hits = reads+r, joins+jn, hits+h
			kernelBusy += time.Since(t0)
		}
		j = k
	}
	sh.ring.Record(obs.SpanKernelDone, sh.id, id, reads, int64(kernelBusy))
	now := time.Now()
	if bf.ops == nil {
		// A key column is one op class with one enqueue time.
		sh.met.recordLatencyN(classOf(bf.kind), now.Sub(bf.enq), uint64(len(seg))-dropped)
	} else {
		for _, i := range seg {
			if bf.res[i].Dropped {
				continue
			}
			enq := bf.enq
			if bf.futs != nil {
				enq = bf.futs[i].enq
			}
			sh.met.recordLatency(classOf(bf.ops[i].Kind), now.Sub(enq))
		}
	}
	sh.ring.Record(obs.SpanComplete, sh.id, id, len(seg), int64(dropped))
	// Kernel metrics (batches, group, busy) count only
	// kernel drains: a write run never entered the lookup kernel, so it
	// is recorded on the write side and must not dilute Batches, Group
	// or Busy with a group size it never used.
	if reads > 0 {
		sh.met.recordBatch(reads, g, kernelBusy)
		sh.met.recordJoins(joins, hits)
		sh.ctl.observe(reads, kernelBusy)
	}
	if writes > 0 {
		sh.met.recordWriteBusy(writeBusy)
	}
	sh.met.recordDropped(dropped)
	bf.segDone(dropped)
}

// drainRun drains one read run of a segment (its dropped ops are left
// out of the gathered key column) against the epoch snapshot and delta
// view of the batch's read horizon, completing their results by index.
// The view is built per run, not per segment: a write between runs can
// install a pending epoch, and a read after it must probe the
// post-install pair or it would miss the writes the merge just retired
// from the delta. It returns the number of reads drained, and of join
// probes among them and their build-side hits.
//
//isi:hotpath
func (sh *shard) drainRun(bf *BatchFuture, run []uint32, g int) (reads int, joins, hits uint64) {
	at := bf.snapSeq
	if at == latestSeq {
		at = sh.hz.Load()
	}
	ep, dv := sh.viewAt(at)
	keys, pos, out := sh.runs.gather(bf, run)
	var msink *[]Match
	if bf.matches != nil {
		msink = &bf.matches[sh.id]
	}
	joins, hits = ep.idx.drainOps(dv, bf, pos, keys, g, out, msink)
	return len(pos), joins, hits
}

// runScratch is the op drain's gather scratch: a read run's live keys as
// the key column the batch kernels take, their indices in the column,
// and the result column stage 1 fills. Shard-local, reused across runs.
type runScratch struct {
	keys []uint64
	pos  []uint32
	out  []Result
}

// gather compacts run's live (not dropped) keys into keys and pos; out
// has one slot per live key. A key column's run has no dropped keys (it
// drops whole segments), so its indices are the run itself.
//
//isi:hotpath
func (rs *runScratch) gather(bf *BatchFuture, run []uint32) (keys []uint64, pos []uint32, out []Result) {
	if cap(rs.keys) < len(run) {
		rs.keys = make([]uint64, len(run)) //isi:allow-alloc(cap-guarded growth of the shard's drain scratch to a new max run size)
		rs.pos = make([]uint32, len(run))  //isi:allow-alloc(grows with keys above)
		rs.out = make([]Result, len(run))  //isi:allow-alloc(grows with keys above)
	}
	if bf.ops == nil {
		keys = rs.keys[:len(run)]
		for j, i := range run {
			keys[j] = bf.keys[i]
		}
		return keys, run, rs.out[:len(run)]
	}
	keys, pos = rs.keys[:0], rs.pos[:0]
	for _, i := range run {
		if !bf.res[i].Dropped {
			keys = append(keys, bf.ops[i].Key) //isi:allow-alloc(appends stay within the cap-guarded scratch sized above)
			pos = append(pos, i)               //isi:allow-alloc(within scratch cap, as above)
		}
	}
	return keys, pos, rs.out[:len(pos)]
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
	// O(emitted entries) and would dilute the kernel busy time on wide
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
