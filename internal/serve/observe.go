package serve

import (
	"context"
	"runtime/pprof"
	"strconv"

	"repro/internal/obs"
)

// This file is the service's observer wiring — everything that exists
// only when a caller attaches an obs.Observer. The design constraint is
// that observation must not perturb the serving path it measures:
//
//   - Metrics are the shardMetrics atomics the hot path already writes;
//     attaching an observer only registers pointers to them, so there is
//     no second accounting and no copying.
//   - Span recording sites hold a nil *obs.SpanRing when observation is
//     off; every Record call is nil-safe, so the disabled cost is one
//     pointer check. Enabled, a record is one struct copy into a
//     pre-sized ring — no allocation, so the O(1)-allocation batch
//     admission guarantee holds with observation on.
//   - pprof label contexts are precomputed per shard at attach time
//     (subsystem and shard, and one per op class); the run loop swaps
//     the goroutine's label set with SetGoroutineLabels, which does not
//     allocate, so CPU profiles attribute kernel samples to shard/op-kind
//     with no per-message cost beyond the swap.

// WithObserver attaches an observability sink: per-shard metrics are
// registered into its registry (read live by Snapshot/WriteJSON), batch
// lifecycles are stamped into per-shard span rings plus a service-level
// "admit" ring, every controller move is recorded into a per-shard
// decision log, and the shard goroutines carry pprof labels
// (subsystem/shard/op) for profile attribution. Passing nil is the same
// as omitting the option: all recording sites compile down to one nil
// check.
func WithObserver(o *obs.Observer) Option {
	return func(opts *options) { opts.obsv = o }
}

// Observer returns the observer the service was built with (nil if
// none).
func (s *Service) Observer() *obs.Observer { return s.obsv }

// attachObserver wires one shard into the observer: adopt its metrics
// under serve_*{shard=i} names, hand it its span ring and its
// controller's decision log, and precompute the pprof label contexts
// its goroutine will swap between. Called from New before the shard
// goroutine starts, so the plain field writes are race-free. Nil-safe:
// with no observer every recording field stays nil and the shard runs
// unobserved.
func (sh *shard) attachObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	id := strconv.Itoa(sh.id)
	sh.met.register(o.Registry(), sh.id)
	sh.ring = o.Ring("shard" + id)
	sh.ctl.dlog = o.DecisionLog("ctl" + id)
	base := pprof.Labels("subsystem", "serve", "shard", id)
	//isi:allow-ctx(pprof label carrier for the shard goroutine's lifetime, not a request context)
	sh.baseCtx = pprof.WithLabels(context.Background(), base)
	for c := opClass(0); c < nOpClasses; c++ {
		sh.opCtx[c] = pprof.WithLabels(sh.baseCtx, pprof.Labels("op", c.String()))
	}
}

// setLabels swaps the goroutine's pprof label set to ctx; no-op when
// observation is off (the contexts are nil). SetGoroutineLabels on a
// precomputed context does not allocate.
func (sh *shard) setLabels(ctx context.Context) {
	if ctx != nil {
		pprof.SetGoroutineLabels(ctx)
	}
}

// nextBatch allocates the next service-wide batch correlation id and
// stamps the admission event into the service-level ring. Returns 0
// (and records nothing) when observation is off, so the unobserved
// admission path pays one nil check and no atomic.
func (s *Service) nextBatch(n int) uint64 {
	if s.admit == nil {
		return 0
	}
	id := s.batchSeq.Add(1)
	s.admit.Record(obs.SpanAdmit, -1, id, n, 0)
	return id
}
