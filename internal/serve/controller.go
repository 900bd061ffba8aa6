package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// controller hill-climbs one shard's interleaving group size. The paper
// fixes the group at 6 for its hardware (Section 5.4.5), but the optimum
// shifts with index size, index type, and batch shape; a serving system
// should measure instead of hard-code. The controller accumulates batch
// cost over an epoch of AdaptEvery batches, compares the epoch's cost per
// item against the previous epoch, keeps walking while cost improves, and
// reverses direction when it worsens — converging to a ±1 oscillation
// around the local optimum (steepest-descent on a noisy 1-D surface).
//
// observe is called only from the owning shard's goroutine; Group and
// History may be read concurrently (snapshots, reporting). The shard reads
// Group once per drained message, so the current group is an atomic the
// hill-climb step publishes — the drain path never takes mu, which guards
// only the step's bookkeeping and the history its readers copy.
type controller struct {
	adaptive bool
	min, max int
	every    int // batches per epoch

	// Epoch accumulators (shard goroutine only).
	batches int
	items   int
	cost    float64
	prev    float64 // previous epoch's cost per item; 0 = none yet

	group atomic.Int32 // written by observe (shard goroutine) only

	mu     sync.Mutex
	dir    int
	epochs uint64 // completed controller epochs
	hist   []int  // group chosen at each epoch boundary (tail of histCap)

	// dlog records every hill-climb move with its cost evidence; nil (a
	// no-op recorder) unless an observer is attached.
	dlog *obs.DecisionLog
}

// histCap bounds the retained group history (the tail is what matters for
// convergence reporting).
const histCap = 128

func newController(cfg Config) *controller {
	c := &controller{
		adaptive: cfg.Adaptive,
		min:      cfg.MinGroup,
		max:      cfg.MaxGroup,
		every:    cfg.AdaptEvery,
		dir:      +1,
	}
	c.group.Store(int32(cfg.Group))
	return c
}

// Group returns the group size to use for the next batch.
//
//isi:hotpath
func (c *controller) Group() int { return int(c.group.Load()) }

// History returns the chronological tail of per-epoch group choices.
func (c *controller) History() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.hist...)
}

// observe feeds one batch's size and cost (backend units). At each epoch
// boundary it takes one hill-climb step.
func (c *controller) observe(items int, cost float64) {
	if !c.adaptive || items <= 0 {
		return
	}
	c.batches++
	c.items += items
	c.cost += cost
	if c.batches < c.every {
		return
	}
	per := c.cost / float64(c.items)
	epochItems := c.items
	c.batches, c.items, c.cost = 0, 0, 0

	c.mu.Lock()
	defer c.mu.Unlock()
	reversed := false
	if c.prev > 0 && per > c.prev {
		c.dir = -c.dir
		reversed = true
	}
	prev := c.prev
	c.prev = per
	from := c.Group()
	to := from
	next := from + c.dir
	if next < c.min || next > c.max {
		c.dir = -c.dir
		next = from + c.dir
	}
	if next >= c.min && next <= c.max {
		to = next
		c.group.Store(int32(to))
	}
	if len(c.hist) == histCap {
		c.hist = append(c.hist[:0], c.hist[1:]...) //isi:allow-alloc(in-place shift of the bounded history ring; epoch-boundary only)
	}
	c.hist = append(c.hist, to) //isi:allow-alloc(bounded history ring, one entry per controller epoch)
	c.epochs++
	// The decision log's mutex nests strictly inside c.mu here and is
	// never taken the other way around.
	c.dlog.Record(obs.Decision{
		Epoch: c.epochs, From: from, To: to,
		Items: epochItems, Cost: per, PrevCost: prev, Reversed: reversed,
	})
}
