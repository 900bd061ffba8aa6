package serve

import "sync"

// window is how many sealed point batches may be unfinished while the
// open batch still seals with its first op (Nagle's rule, RFC 896).
const window = 1

// batcher is the group-commit admission gate: concurrent submitters
// append to the open batch, an op column under construction — a
// BatchFuture whose slab of Futures (allocated once, so a Future's
// address is stable) collects each request's op, context and enqueue
// time. It keeps no clock. The open batch seals when it is full, and
// the last segment of a sealed batch to complete seals the open one
// behind it; a batch opened while fewer than window sealed batches are
// unfinished has room for one op, so a lone op seals at once and flies
// alone, and under load ops gather behind the batches in flight.
//
// Sealed batches queue in seal order and are flushed in that order
// outside the lock (a flush may block on shard back-pressure), one at a
// time: whoever sealed a batch flushes queued batches until its own is
// flushed, or waits while another goroutine does, so a sealer keeps the
// back-pressure and never waits for a goroutine to be scheduled.
type batcher struct {
	mu      sync.Mutex
	turned  sync.Cond    // broadcast when turn advances; L is &mu
	cur     *BatchFuture // the open batch; nil until the first add after a seal
	maxSize int
	flush   func(*BatchFuture)
	closed  bool
	// unfinished counts sealed batches whose last segment has not
	// completed. queue holds the sealed batches not yet flushed, the
	// first of them ticket turn+1; sealed is the last ticket drawn.
	unfinished   int
	queue        []*BatchFuture
	sealed, turn uint64
	flushing     bool
}

func newBatcher(maxSize int, flush func(*BatchFuture)) *batcher {
	b := &batcher{maxSize: maxSize, flush: flush}
	b.turned.L = &b.mu
	return b
}

// add admits one request into the open batch's slab and returns its
// Future there, or nil if the batcher is closed. The request that fills
// the slab seals it. An add racing close is checked under the lock: it
// either lands in the final flushed batch or is refused here — it can
// never strand a future or dispatch into a closed shard queue — and the
// caller completes the refused request with ErrClosed (a service
// draining live traffic at shutdown must hand producers an error, not a
// crash).
func (b *batcher) add(f Future) *Future {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	if b.cur == nil {
		size := b.maxSize
		if b.unfinished < window {
			size = 1 // nothing to wait behind: seal with this op
		}
		b.cur = &BatchFuture{futs: make([]Future, 0, size), done: make(chan struct{}), snapSeq: latestSeq, b: b}
	}
	bf := b.cur
	f.bf, f.i = bf, len(bf.futs)
	bf.futs = append(bf.futs, f)
	if len(bf.futs) == cap(bf.futs) {
		b.flushLocked(b.sealLocked())
	}
	return &bf.futs[f.i]
}

// finished retires a sealed batch whose last segment has completed and
// seals the open batch behind it once the window has room. It runs on a
// shard goroutine, which must never send on a shard queue, so that
// batch is flushed from a goroutine of its own (or by a sealer first).
func (b *batcher) finished() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.unfinished--; b.cur != nil && b.unfinished < window {
		go func(ticket uint64) {
			b.mu.Lock()
			defer b.mu.Unlock()
			b.flushLocked(ticket)
		}(b.sealLocked())
	}
}

// sealLocked queues the open batch (nil if there is none) and returns
// its ticket.
func (b *batcher) sealLocked() uint64 {
	if b.cur != nil {
		b.unfinished++
	}
	b.queue = append(b.queue, b.cur)
	b.cur = nil
	b.sealed++
	return b.sealed
}

// flushLocked returns once the batch of ticket has been flushed,
// flushing queued batches in seal order itself while no one else is. It
// releases b.mu for each flush.
func (b *batcher) flushLocked(ticket uint64) {
	for b.turn < ticket {
		if b.flushing {
			b.turned.Wait()
			continue
		}
		bf := b.queue[0]
		n := copy(b.queue, b.queue[1:])
		b.queue[n], b.queue = nil, b.queue[:n]
		b.flushing = true
		b.mu.Unlock()
		if bf != nil {
			b.flush(bf)
		}
		b.mu.Lock()
		b.flushing = false
		b.turn++
		b.turned.Broadcast()
	}
}

// close seals and flushes whatever is pending, after every batch sealed
// before it. Adds may race close: losers are refused (add returns nil)
// before the shard queues shut.
func (b *batcher) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.flushLocked(b.sealLocked())
}
