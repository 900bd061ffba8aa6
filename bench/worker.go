package main

import (
	"context"
	"iter"
	"time"

	"repro/internal/serve"
)

// This file is the load-generating client: it times the five steps of every
// request from outside the program (generate, submit, wait, verify, and in
// the paced phase the lag behind schedule), checks every result against the
// oracle, and records what the metrics are computed from.

// stamps are one request's step boundaries as offsets from the run's start.
// The steps tile the request: generate [genStart, subStart), submit
// [subStart, subEnd), wait [subEnd, done) — from the admission call's return
// until this client observed the completion — and verify [done, verEnd).
// intended is the scheduled send time, negative in the closed phase.
type stamps struct {
	intended, genStart, subStart, subEnd, done, verEnd time.Duration
}

// flight is one request's scratch: stamps, the key vector or transaction
// handed to the service, and the futures that complete it. Flights are
// recycled, their contents regenerated for every request.
type flight struct {
	stamps
	req  uint64
	keys []uint64    // vector workloads
	bf   batchFuture // vector workloads
	ops  []txOp      // mixed_rw
	futs []*serve.Future
}

// batchFuture is what serve.BatchFuture and client.BatchFuture share.
type batchFuture interface {
	Done() <-chan struct{}
	Err() error
	Keys() []uint64
	Wait() []serve.Result
	WaitJoin() []serve.JoinResult
	Dropped() int
	Matches() iter.Seq[serve.Match]
}

// driver is one workload kind's four request steps. verify returns how many
// of the request's ops failed: wrong result, error, dropped, shed or refused.
type driver interface {
	generate(f *flight)
	submit(f *flight)
	wait(f *flight)
	verify(f *flight) (failed int)
}

// phaseRec is what one client records during one phase.
type phaseRec struct {
	paced, traced     bool
	samples           []sample
	late              []time.Duration // paced: how far behind schedule each send began
	attempted, failed int64           // ops
	harness           time.Duration   // generate + verify time
	end               time.Duration   // when the client finished draining
	trace             []traceRec
}

type traceRec struct {
	stamps
	req uint64
}

// worker implements loader over a driver.
type worker struct {
	clk  clock
	drv  driver
	ops  int // per request
	fifo []*flight
	free []*flight
	seq  uint64
	rec  *phaseRec
}

func newWorker(clk clock, drv driver, sp spec) *worker {
	w := &worker{clk: clk, drv: drv, ops: sp.vector}
	for i := 0; i < pacedMaxInflight; i++ {
		f := &flight{}
		if sp.kind == kindMixed {
			f.ops = make([]txOp, sp.vector)
			f.futs = make([]*serve.Future, sp.vector)
		} else {
			f.keys = make([]uint64, sp.vector)
		}
		w.free = append(w.free, f)
	}
	return w
}

func (w *worker) inflight() int { return len(w.fifo) }

func (w *worker) issue(intended time.Duration) {
	f := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	w.seq++
	f.req = w.seq
	f.intended = intended
	f.genStart = w.clk.now()
	w.drv.generate(f)
	f.subStart = w.clk.now()
	w.drv.submit(f)
	f.subEnd = w.clk.now()
	w.fifo = append(w.fifo, f)
}

func (w *worker) completeOldest() {
	f := w.fifo[0]
	w.fifo = w.fifo[:copy(w.fifo, w.fifo[1:])]
	w.drv.wait(f)
	f.done = w.clk.now()
	failed := w.drv.verify(f)
	f.verEnd = w.clk.now()

	r := w.rec
	r.attempted += int64(w.ops)
	r.failed += int64(failed)
	r.harness += f.subStart - f.genStart + f.verEnd - f.done
	if r.paced {
		r.samples = append(r.samples, sample{at: f.intended, lat: f.done - f.intended})
		r.late = append(r.late, f.genStart-f.intended)
	} else {
		r.samples = append(r.samples, sample{at: f.subStart, lat: f.done - f.subStart})
	}
	if r.traced {
		r.trace = append(r.trace, traceRec{stamps: f.stamps, req: f.req})
	}
	w.free = append(w.free, f)
}

// vecDriver drives the vectorized workloads: lookup_big, lookup_small and
// net_lookup through GoBatch, join_probe through JoinBatch.
type vecDriver struct {
	r      rng
	domain uint64
	send   func(keys []uint64) batchFuture
	// expect is the join oracle; nil for lookups.
	expect []joinExpect
}

func (d *vecDriver) generate(f *flight) {
	if d.expect != nil {
		fillJoinKeys(&d.r, f.keys, d.expect)
	} else {
		fillLookupKeys(&d.r, f.keys, d.domain)
	}
}
func (d *vecDriver) submit(f *flight) { f.bf = d.send(f.keys) }
func (d *vecDriver) wait(f *flight)   { <-f.bf.Done() }

func (d *vecDriver) verify(f *flight) int {
	n := len(f.keys)
	if f.bf.Err() != nil {
		return n
	}
	// The in-process service permutes the submitted vector by shard;
	// results align with Keys(), not with the order generated.
	keys := f.bf.Keys()
	if d.expect != nil {
		return d.verifyJoin(f.bf, keys)
	}
	res := f.bf.Wait()
	if len(res) != n || len(keys) != n {
		return n
	}
	failed := 0
	for i, k := range keys {
		r := res[i]
		present := k&1 == 0
		if r.Dropped || r.Found != present || (present && r.Code != uint32(k>>1)) {
			failed++
		}
	}
	return failed
}

// verifyJoin checks each probe's code, hit count and payload sum against the
// oracle, and the streamed matches against their totals.
func (d *vecDriver) verifyJoin(bf batchFuture, keys []uint64) int {
	n := len(keys)
	res := bf.WaitJoin()
	if len(res) != n {
		return n
	}
	failed := 0
	var hits, agg uint64
	for i, k := range keys {
		want := joinExpect{}
		code := serve.NotFound
		if k&1 == 0 {
			want, code = d.expect[k>>1], uint32(k>>1)
		}
		r := res[i]
		if r.Dropped || r.Code != code || r.Hits != want.hits || r.Agg != want.agg {
			failed++
		}
		hits += uint64(want.hits)
		agg += want.agg
	}
	for m := range bf.Matches() {
		hits--
		agg -= uint64(m.Payload)
	}
	if hits != 0 || agg != 0 {
		return n
	}
	return failed
}

// txnDriver drives mixed_rw: each transaction is point futures submitted in
// order through the group-commit batcher, on keys only this client touches.
type txnDriver struct {
	r   rng
	st  *stripe
	svc *serve.Service
	ctx context.Context
}

func (d *txnDriver) generate(f *flight) { d.st.fillTxn(&d.r, f.ops) }

func (d *txnDriver) submit(f *flight) {
	for i, op := range f.ops {
		switch op.kind {
		case txRead:
			f.futs[i] = d.svc.Go(d.ctx, op.key)
		case txInsert:
			f.futs[i] = d.svc.Insert(d.ctx, op.key, op.want)
		default:
			f.futs[i] = d.svc.Delete(d.ctx, op.key)
		}
	}
}

func (d *txnDriver) wait(f *flight) {
	for _, fu := range f.futs {
		fu.Wait()
	}
}

func (d *txnDriver) verify(f *flight) int {
	failed := 0
	for i, op := range f.ops {
		r := f.futs[i].Wait()
		found := op.want != serve.NotFound
		if f.futs[i].Err() != nil || r.Dropped || r.Found != found || (found && r.Code != op.want) {
			failed++
		}
	}
	d.st.release(f.ops)
	return failed
}
