package serve

import (
	"sync"
	"time"
)

// batcher is the group-commit admission gate: concurrent submitters append
// to the open batch; the batch seals when it reaches maxSize requests or
// when maxWait elapses after its first request, whichever comes first.
// The open batch is an op column under construction — a BatchFuture whose
// slab of Futures (allocated once at maxSize, so a Future's address is
// stable) collects each request's op, context and enqueue time. Sealing
// hands the batch to flush outside the lock, so admission stays
// concurrent while a sealed batch is being grouped (flush may block on
// shard back-pressure).
type batcher struct {
	mu      sync.Mutex
	cur     *BatchFuture // the open batch; nil until the first add after a seal
	gen     uint64       // increments per seal; stale timers no-op
	maxSize int
	maxWait time.Duration
	flush   func(*BatchFuture)
	closed  bool
	timer   *time.Timer // armed for the open batch's maxWait, nil if none
	// flushing tracks sealed-but-not-yet-flushed batches (the flush runs
	// outside the lock); close waits for them so a pending maxWait timer
	// can never dispatch into an already-closed shard queue.
	flushing sync.WaitGroup
}

func newBatcher(maxSize int, maxWait time.Duration, flush func(*BatchFuture)) *batcher {
	return &batcher{maxSize: maxSize, maxWait: maxWait, flush: flush}
}

// add admits one request into the open batch's slab and returns its
// Future there, or nil if the batcher is closed. The first request of a
// fresh batch arms the maxWait timer; the maxSize'th seals immediately.
// An add racing close is checked under the lock: it either lands in the
// final flushed batch or is refused here — it can never strand a future
// or dispatch into a closed shard queue — and the caller completes the
// refused request with ErrClosed (a service draining live traffic at
// shutdown must hand producers an error, not a crash).
func (b *batcher) add(f Future) *Future {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	if b.cur == nil {
		b.cur = &BatchFuture{futs: make([]Future, 0, b.maxSize), done: make(chan struct{}), snapSeq: latestSeq}
	}
	bf := b.cur
	f.bf, f.i = bf, len(bf.futs)
	bf.futs = append(bf.futs, f)
	p := &bf.futs[f.i]
	var sealed *BatchFuture
	if len(bf.futs) >= b.maxSize {
		sealed = b.sealLocked()
	} else if len(bf.futs) == 1 && b.maxWait > 0 {
		gen := b.gen
		b.timer = time.AfterFunc(b.maxWait, func() { b.expire(gen) })
	}
	b.mu.Unlock()
	b.dispatchSealed(sealed)
	return p
}

// expire seals the batch the timer was armed for, unless it already
// sealed by size (the generation moved on).
func (b *batcher) expire(gen uint64) {
	b.mu.Lock()
	var sealed *BatchFuture
	if gen == b.gen {
		sealed = b.sealLocked()
	}
	b.mu.Unlock()
	b.dispatchSealed(sealed)
}

// sealLocked detaches the open batch (nil if there is none) and
// registers the pending flush with the flushing group while still under
// the lock (so close cannot miss it).
func (b *batcher) sealLocked() *BatchFuture {
	if b.timer != nil {
		// Sealing by size or close: retire the open batch's timer rather
		// than leaving a dead one per batch in the runtime timer heap.
		// Stop may miss a concurrently firing timer; the gen bump below
		// neutralizes that fire.
		b.timer.Stop()
		b.timer = nil
	}
	bf := b.cur
	b.cur = nil
	b.gen++
	if bf != nil {
		b.flushing.Add(1)
	}
	return bf
}

// dispatchSealed flushes a batch detached by sealLocked (outside the
// lock) and retires its flushing registration.
func (b *batcher) dispatchSealed(bf *BatchFuture) {
	if bf == nil {
		return
	}
	b.flush(bf)
	b.flushing.Done()
}

// close seals and flushes whatever is pending, then waits for any
// concurrent timer flush to finish dispatching. Adds may race close:
// losers are refused (add returns nil) before the shard queues shut.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	sealed := b.sealLocked()
	b.mu.Unlock()
	b.dispatchSealed(sealed)
	b.flushing.Wait()
}
