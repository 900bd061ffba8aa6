package serve

import (
	"sync"
	"sync/atomic"
)

// This file is the service-level half of the multi-version epoch
// machinery (the shard-local half — retained epochs, viewAt, reclaim —
// lives in epoch.go): snapshot pins, the commit horizon, and the
// contiguous-prefix commit queue for cross-shard atomic batches.
//
// The model is deliberately minimal. Plain writes (Submit/ApplyBatch)
// are visible to every reader the moment their shard applies them —
// pinning does NOT give repeatable reads. What a pin fences is atomic
// batches: ApplyBatchAtomic tags its entries with a fresh seq, those
// entries stay invisible on every shard until the batch's last segment
// lands, and then the commit queue advances the horizon so the whole
// batch becomes visible at once. A reader that captured horizon S at
// admission therefore sees exactly the atomic batches with seq <= S on
// every shard — all of a cross-shard batch or none of it — while a
// latest reader (no pin) loads the horizon per shard segment and may
// observe a batch on one shard before another.
//
// Conflicting writes to one key resolve per-shard by apply order (last
// apply wins): a plain write landing after an uncommitted atomic entry
// shadows it for every reader, even if the batch commits later.

// Snap is a pinned commit horizon. While a Snap is live, every shard's
// reclaimer keeps the epochs its horizon can step back to, so
// At-suffixed reads carrying it drain against a stable cross-shard view
// of atomic-batch visibility. Release it when done — a leaked pin
// pins old epochs (and their absorbed write generations) in memory.
type Snap struct {
	s        *Service
	seq      uint64
	released atomic.Bool
}

// Snapshot pins the current commit horizon and returns the pin. The
// caller owns it: pass it to the At-suffixed reads and Release it when
// done. Snapshot is cheap (one mutex acquisition) and safe to call
// concurrently with serving.
func (s *Service) Snapshot() *Snap {
	return &Snap{s: s, seq: s.pins.pin(&s.horizon)}
}

// Seq reports the pinned commit horizon.
func (sn *Snap) Seq() uint64 { return sn.seq }

// Release drops the pin, letting reclaim trim the epochs it was holding.
// Idempotent; a nil Snap is a no-op.
func (sn *Snap) Release() {
	if sn != nil && sn.released.CompareAndSwap(false, true) {
		sn.s.pins.unpin(sn.seq)
	}
}

// noPin is the sentinel pinSet.minPin returns when no snapshot is live:
// reclaim then keeps only the current epoch.
const noPin = ^uint64(0)

// pinSet tracks live snapshot pins by horizon with reference counts and
// a cached minimum. pin reads the horizon and registers under one
// mutex acquisition — the ordering that makes reclaim safe: either a
// reclaimer's minPin observes the pin, or the pin's horizon is at least
// as new as anything the reclaimer could have trimmed (upTo <= horizon
// holds for every installed epoch, and the horizon only grows).
type pinSet struct {
	mu   sync.Mutex
	refs map[uint64]int
	min  uint64 // noPin when empty
}

func (p *pinSet) init() { p.min = noPin }

// pin registers a pin at the current horizon and returns it.
func (p *pinSet) pin(hz *atomic.Uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := hz.Load()
	if p.refs == nil {
		p.refs = make(map[uint64]int)
	}
	p.refs[s]++
	if s < p.min {
		p.min = s
	}
	return s
}

// unpin drops one reference at horizon s, recomputing the cached
// minimum when the last reference at the minimum goes away.
func (p *pinSet) unpin(s uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := p.refs[s]; n > 1 {
		p.refs[s] = n - 1
		return
	}
	delete(p.refs, s)
	if s != p.min {
		return
	}
	p.min = noPin
	for k := range p.refs {
		if k < p.min {
			p.min = k
		}
	}
}

// minPin reports the oldest live pin (noPin when none). Shard
// reclaimers call it under the same mutex pin uses, so a concurrent
// Snapshot either registers first or pins a horizon no older than the
// current one.
func (p *pinSet) minPin() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.min
}

// commitQueue advances the commit horizon over the contiguous prefix of
// completed atomic batches. Seqs are minted in admission order but
// batches complete out of order; a batch's visibility (and that of
// every later batch) waits until all earlier seqs have landed, which is
// what makes "seq <= horizon" a consistent cross-shard cut.
type commitQueue struct {
	mu   sync.Mutex
	done map[uint64]bool
}

// commit marks seq complete and advances hz over the contiguous
// completed prefix.
func (q *commitQueue) commit(seq uint64, hz *atomic.Uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done == nil {
		q.done = make(map[uint64]bool)
	}
	q.done[seq] = true
	h := hz.Load()
	for q.done[h+1] {
		delete(q.done, h+1)
		h++
	}
	hz.Store(h)
}
