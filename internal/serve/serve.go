// Package serve turns the interleaved lookup kernels into a concurrent
// index-join service — the paper's robustness argument operationalized as
// a system rather than a one-shot experiment run.
//
// Requests are typed operations (Op: a point lookup, a join probe of an
// IN-predicate's values against a dictionary, an ordered range scan, or
// a dictionary write — insert or delete) and arrive three ways:
//
//   - Point admission (Submit/Go/GoJoin/Insert/Delete): one op per
//     call, accumulated by a group-commit style batcher into an op
//     column that seals when full or when the batch in flight before it
//     completes (no timer: a lone op flies at once); a Future is an
//     index into the sealed column, completed with it.
//   - Vectorized admission (SubmitBatch/GoBatch/JoinBatch/ApplyBatch): a
//     whole key column, or a whole op column of any point kinds, per
//     call — the paper's index join is a column operator, so a client
//     that already holds the column submits it in one O(1)-allocation
//     call instead of making the batcher re-assemble a batch it already
//     had. An op column (ApplyBatch, and every sealed point batch)
//     executes per shard in submission order: a read observes the
//     writes submitted before it.
//   - Range admission (Range/RangeBatch): ordered scans of [lo, hi]
//     fanned out to every shard (a range cannot be hash-routed), seeked
//     through the interleaved kernels, merged with the write deltas, and
//     streamed back in global key order (range.go).
//
// The service is read-write: each shard buffers writes in a small sorted
// delta probed delta-then-main by the same coroutine drains that serve
// reads. A full delta freezes into one generation, which the shard
// merges into its index itself, a bounded step per applied write (and
// in larger steps while idle), publishing the merged snapshot through an
// atomic epoch pointer (delta.go, epoch.go). Reads never block on
// writes, and writes never wait on merges: the step is sized so a merge
// ends before the delta can refill, so at most one generation is ever
// frozen.
//
// Epochs are multi-versioned: each shard retains the installed snapshots
// a live pin can step back to (only the current one when none is live),
// so a reader can pin the commit horizon at admission (Snapshot / the
// At-suffixed submission variants / WithSnapshotReads) and drain against
// a consistent cross-shard view. Plain writes are visible to every
// reader the moment they land; the pinned horizon only fences atomic
// batches (ApplyBatchAtomic), which become visible everywhere at once
// when their seq commits — a snapshot reader observes all of a
// cross-shard atomic batch or none of it.
//
// Either way, requests are hash-partitioned across per-core shards
// (every column through one order-keeping index permutation, so results
// align with the column as submitted) and drained through the
// coroutine-interleaved kernels of one native index per shard
// (coro.DrainFlat over internal/native frames on real memory). The paper's experiments run on the simulated machine
// of internal/exp instead; serving has one execution path per operation.
// Each shard's interleaving group size is tuned online by a
// hill-climbing controller on the measured per-batch drain time, instead
// of hard-coding the paper's group of 6: the optimal group shifts with
// index size, index type, and batch shape, which is exactly the paper's
// point about robustness.
//
// Admission is context-aware: every submission carries a context.Context,
// and a request whose context is cancelled or past its deadline by the
// time its shard would drain it is dropped before the kernel runs —
// never probed — completed with a Dropped result and counted in Stats.
//
// The unit of partitioning is the key: shard i owns the slice of the
// (sorted, distinct) value domain whose keys hash to i, indexed
// shard-locally but answering with global codes (positions in the full
// sorted domain), so clients observe one logical dictionary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/native"
	"repro/internal/nativejoin"
	"repro/internal/obs"
)

// ErrClosed reports a submission that raced or followed Close: the
// request never entered the service (the key was never probed, a write
// never applied). Point futures carry it through Future.Err with a
// Dropped result, so a producer draining live traffic at shutdown
// observes a clean refusal instead of a panic.
var ErrClosed = errors.New("serve: service closed")

// NotFound is the code reported for absent keys.
const NotFound = ^uint32(0)

// OpKind is a request's operation type. The service dispatches on it in
// one place per layer; adding a kind (a range scan, an upsert) extends
// the enum rather than forking the admission or drain paths.
type OpKind uint8

const (
	// OpLookup resolves a key to its global dictionary code.
	OpLookup OpKind = iota
	// OpJoin resolves a key and aggregates over its matching build-side
	// tuples (services constructed WithBuild only).
	OpJoin
	// OpInsert upserts the mapping key → Val: subsequent lookups of Key
	// resolve to Val (and join probes walk Val's build chain). The write
	// lands in the owning shard's delta and is folded into the shard's
	// index at the next epoch rebuild.
	OpInsert
	// OpDelete removes Key from the dictionary: subsequent lookups miss.
	// Deleting an absent key is a no-op.
	OpDelete
	// OpRange scans the dictionary for every key in [Key, Hi] (Key is the
	// range's lower bound), emitting (key, code) pairs in ascending key
	// order, at most Limit of them when Limit > 0. A range cannot be
	// routed to one shard, so it is admitted through Range/RangeBatch
	// (which fan out to every shard) rather than Submit/SubmitBatch.
	OpRange
	nOpKinds // sentinel for validation
)

// String names the operation.
func (k OpKind) String() string {
	switch k {
	case OpLookup:
		return "lookup"
	case OpJoin:
		return "join"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpRange:
		return "range"
	}
	return "unknown"
}

// IsWrite reports whether the kind mutates the dictionary.
func (k OpKind) IsWrite() bool { return k == OpInsert || k == OpDelete }

// Op is one typed request: an operation kind applied to a key. Val is
// the value carried by OpInsert (the code lookups of Key will resolve
// to). Hi and Limit belong to OpRange — the range's inclusive upper
// bound (Key is the lower bound) and result cap (0 = unbounded) — and
// are ignored by the point kinds.
//
// Field order is packing order, widest first (8-aligned words, then the
// 4-byte value, then the kind byte): 32 bytes instead of the 40 the
// declaration order Kind-first costs. Ops travel in columns — a batch
// is []Op — so the saved word is per element, not per batch. Construct
// with keyed literals; positional literals are layout-coupled.
type Op struct {
	Key   uint64
	Hi    uint64
	Limit int
	Val   uint32
	Kind  OpKind
}

// RangeOp builds the OpRange request scanning [lo, hi] with at most
// limit entries (limit <= 0 scans the whole range).
func RangeOp(lo, hi uint64, limit int) Op {
	return Op{Kind: OpRange, Key: lo, Hi: hi, Limit: limit}
}

// Result is the dictionary outcome for one key: the key's global code
// if present — its position in the sorted domain New was built over, or
// the value a later OpInsert upserted. For a write it is the
// acknowledgement: an insert completes {Code: Val, Found: true}, a
// delete {Code: NotFound}. Dropped marks a request whose context was
// cancelled before its shard drained it; the key was never probed (and
// a dropped write was never applied).
type Result struct {
	Code    uint32
	Found   bool
	Dropped bool
}

// Future is one in-flight point request: an index into the slab of the
// admission batch the batcher sealed it into, next to the op, its
// context and its enqueue time. A Submit allocates nothing of its own and
// owns no channel; the request completes, by index into the batch's
// result columns, when the whole sealed batch does. Wait/WaitJoin block
// until then.
type Future struct {
	bf  *BatchFuture
	i   int
	op  Op
	ctx context.Context
	enq time.Time
}

// Op returns the submitted operation.
func (f *Future) Op() Op { return f.op }

// Key returns the looked-up key.
func (f *Future) Key() uint64 { return f.op.Key }

// Wait blocks until the request completes and returns its dictionary
// result (for a join probe, the code-resolution part of the outcome).
func (f *Future) Wait() Result {
	<-f.bf.done
	return f.bf.res[f.i]
}

// WaitJoin blocks until the request completes and returns the full join
// outcome. Only meaningful for futures created by GoJoin.
func (f *Future) WaitJoin() JoinResult {
	<-f.bf.done
	if f.bf.jres == nil {
		return JoinResult{}
	}
	return f.bf.jres[f.i]
}

// Err blocks until the request completes and reports whether the
// submission entered the service: ErrClosed if it raced or followed
// Close (the request was never admitted), nil otherwise. A request
// dropped by its own context completes with a Dropped result, not an
// error.
func (f *Future) Err() error {
	<-f.bf.done
	return f.bf.err
}

// refused is a point request refused at admission: a completed batch of
// one carrying err and a Dropped result; the request never reached a
// shard.
func refused(op Op, err error) *Future {
	bf := &BatchFuture{
		ops:  []Op{op},
		res:  []Result{{Code: NotFound, Dropped: true}},
		jres: []JoinResult{{Code: NotFound, Dropped: true}},
		err:  err,
		done: make(chan struct{}),
	}
	close(bf.done)
	bf.futs = []Future{{bf: bf, op: op}}
	return &bf.futs[0]
}

// Config tunes the service. Zero numeric fields take the DefaultConfig
// value; booleans are taken as-is (a zero Config has Adaptive false, while
// DefaultConfig enables it), so start from DefaultConfig() and override —
// or compose the With* options over the defaults.
type Config struct {
	// Shards is the number of index partitions (one goroutine each).
	Shards int
	// MaxBatch seals an admission batch when it reaches this many
	// requests; a smaller batch seals when the sealed batch in flight
	// before it completes, or at once if none is. A sealed batch is an
	// op column, admitted like an ApplyBatch; vectorized submissions
	// bypass the batcher entirely.
	MaxBatch int
	// Group is the initial interleaving group size per shard; the
	// adaptive controller explores within [MinGroup, MaxGroup].
	Group    int
	MinGroup int
	MaxGroup int
	// Adaptive enables the hill-climbing group-size controller (set
	// explicitly — false is not treated as "unset"); AdaptEvery is the
	// number of batches per controller epoch.
	Adaptive   bool
	AdaptEvery int
	// QueueDepth is the per-shard sub-batch queue depth; a full queue
	// back-pressures admission.
	QueueDepth int
	// RebuildThreshold is the per-shard write-delta size that triggers an
	// epoch rebuild (freezing the delta, merging it into the shard's
	// index a step per later write, and publishing the merged snapshot).
	// 0 takes the default; a negative value disables rebuilds, leaving
	// writes in the delta indefinitely.
	RebuildThreshold int
}

// DefaultConfig returns the serving defaults: 4 shards, admission
// batches of at most 256 requests, and an adaptive group starting at
// the paper's 6.
func DefaultConfig() Config {
	return Config{
		Shards:     4,
		MaxBatch:   256,
		Group:      6,
		MinGroup:   1,
		MaxGroup:   32,
		Adaptive:   true,
		AdaptEvery: 8,
		QueueDepth: 8,
		// 4096 writes keep the delta well inside L1/L2 while amortizing
		// the install pause over thousands of writes.
		RebuildThreshold: 4096,
	}
}

// withDefaults fills zero fields from DefaultConfig and normalizes bounds.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Shards <= 0 {
		c.Shards = d.Shards
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.Group <= 0 {
		c.Group = d.Group
	}
	if c.MinGroup <= 0 {
		c.MinGroup = d.MinGroup
	}
	if c.MaxGroup <= 0 {
		c.MaxGroup = d.MaxGroup
	}
	if c.MaxGroup < c.MinGroup {
		c.MaxGroup = c.MinGroup
	}
	if c.Group < c.MinGroup {
		c.Group = c.MinGroup
	}
	if c.Group > c.MaxGroup {
		c.Group = c.MaxGroup
	}
	if c.AdaptEvery <= 0 {
		c.AdaptEvery = d.AdaptEvery
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.RebuildThreshold == 0 {
		c.RebuildThreshold = d.RebuildThreshold
	}
	return c
}

// Option configures New. Options apply in order over DefaultConfig, so a
// later option overrides an earlier one (WithConfig replaces the whole
// numeric configuration and is best placed first).
type Option func(*options)

type options struct {
	cfg       Config
	build     []BuildTuple
	hasBuild  bool
	snapReads bool
	obsv      *obs.Observer
}

// WithConfig replaces the service configuration wholesale (zero fields
// still default as in Config).
func WithConfig(cfg Config) Option { return func(o *options) { o.cfg = cfg } }

// WithShards sets the number of index partitions.
func WithShards(n int) Option { return func(o *options) { o.cfg.Shards = n } }

// WithAdmission bounds the point-op group-commit batcher: a batch seals
// at maxBatch requests at the latest.
func WithAdmission(maxBatch int) Option {
	return func(o *options) { o.cfg.MaxBatch = maxBatch }
}

// WithGroup sets the initial interleaving group size and the bounds the
// adaptive controller explores within.
func WithGroup(initial, min, max int) Option {
	return func(o *options) { o.cfg.Group, o.cfg.MinGroup, o.cfg.MaxGroup = initial, min, max }
}

// WithAdaptive enables or disables the per-shard hill-climbing group
// controller; every is the number of batches per controller epoch (0
// keeps the default).
func WithAdaptive(on bool, every int) Option {
	return func(o *options) { o.cfg.Adaptive, o.cfg.AdaptEvery = on, every }
}

// WithQueueDepth sets the per-shard sub-batch queue depth.
func WithQueueDepth(d int) Option { return func(o *options) { o.cfg.QueueDepth = d } }

// WithRebuildThreshold sets the per-shard write-delta size that triggers
// a background epoch rebuild (n < 0 disables rebuilds; 0 keeps the
// default).
func WithRebuildThreshold(n int) Option {
	return func(o *options) { o.cfg.RebuildThreshold = n }
}

// WithSnapshotReads makes every read admission pin the commit horizon at
// admission time: each sealed point batch, vectorized read batch, and
// range batch drains against the horizon it was admitted under, so a
// cross-shard atomic batch (ApplyBatchAtomic) is observed all-or-none.
// Plain writes stay immediately visible regardless. Equivalent to
// routing every read through the At-suffixed variants with a nil Snap.
func WithSnapshotReads(on bool) Option {
	return func(o *options) { o.snapReads = on }
}

// WithBuild declares a build-side relation (possibly empty), making this
// a join service: each shard owns, next to its dictionary partition, a
// real-memory hash table over the build tuples whose keys hash to it,
// keyed by global dictionary code; OpJoin probes resolve their key
// against the dictionary and pipe the code into the hash probe within
// the same interleaved drain. Build tuples whose key is absent from the
// value domain are dropped — a dictionary-encoded probe can never reach
// them.
//
// Writes and joins: the build side is immutable and keyed by the codes
// of the domain it was loaded against, partitioned by build-key hash.
// Dictionary writes edit only the key → code mapping, so a join probe
// matches the build tuples carrying its resolved code in its own
// shard's partition: deleting a key removes its matches, re-inserting
// it with its original code restores them, and aliasing a key onto
// another key's code reaches that chain exactly when both keys hash to
// the same shard (a probe never leaves its shard).
func WithBuild(build []BuildTuple) Option {
	return func(o *options) {
		if build == nil {
			build = []BuildTuple{}
		}
		o.build, o.hasBuild = build, true
	}
}

// Service is the sharded, batch-admission index-join service.
type Service struct {
	cfg       Config
	b         *batcher
	shards    []*shard
	wg        sync.WaitGroup
	closed    atomic.Bool
	closeOnce sync.Once
	hasBuild  bool
	snapReads bool

	// Multi-version machinery: horizon is the commit horizon — every
	// atomic batch with seq <= horizon is fully applied on every shard;
	// atomSeq mints atomic batch seqs; commits advances the horizon over
	// the contiguous committed prefix; pins tracks live snapshot pins for
	// the shards' grace-period epoch reclaim.
	horizon atomic.Uint64
	atomSeq atomic.Uint64
	commits commitQueue
	pins    pinSet

	// admitGate serializes the vectorized and range admission paths
	// against Close: SubmitBatch/ApplyBatch/RangeBatch dispatch straight
	// into the shard queues, so they hold the read side across the
	// closed-check and the queue sends, and Close takes the write side
	// before closing those queues. Point admission needs no gate — the
	// batcher's own close ordering covers it.
	admitGate sync.RWMutex
	// Admission-refusal accounting by reason, kept service-level because
	// a refused request never reaches a shard: shedDrops counts requests
	// a front-end dropped before admission (Shed — quota or queue-depth
	// backpressure), closedDrops counts ErrClosed refusals. The shards'
	// own dropped counters cover the third reason, context cancellation.
	shedDrops   obs.Counter
	closedDrops obs.Counter

	// Observer wiring (observe.go): nil when no observer is attached.
	// admit is the service-level span ring stamping batch admissions;
	// batchSeq mints the service-wide batch correlation ids.
	obsv     *obs.Observer
	admit    *obs.SpanRing
	batchSeq atomic.Uint64
}

// strictlyIncreasing reports whether vals is sorted and duplicate-free.
func strictlyIncreasing(vals []uint64) bool {
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			return false
		}
	}
	return true
}

// shardOf routes a key to its shard: a Fibonacci-multiplicative hash so
// dense integer domains still spread evenly.
func shardOf(key uint64, shards int) int {
	h := key * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return int(h % uint64(shards))
}

// New builds a service over the given value domain. values need not be
// sorted; duplicates are discarded. The global code of a value is its
// position in the sorted, deduplicated domain. values is read, never
// modified, and not retained once New returns. Options compose over
// DefaultConfig; WithBuild adds a build side and enables OpJoin.
func New(values []uint64, opts ...Option) (*Service, error) {
	o := options{cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg.withDefaults()
	// sorted is only read below and not retained past New (every shard
	// gets its own columns), so an input that is already the sorted,
	// duplicate-free domain is used in place: no copy, no sort.
	sorted := values
	if !strictlyIncreasing(values) {
		sorted = slices.Clone(values)
		slices.Sort(sorted)
		sorted = slices.Compact(sorted)
	}
	n := len(sorted)
	// Codes are uint32 with NotFound as sentinel: the domain must leave
	// every code below the sentinel.
	if uint64(n) >= uint64(NotFound) {
		return nil, fmt.Errorf("serve: domain of %d values does not fit uint32 codes", n)
	}

	// Partition the sorted domain, count then fill, so every shard's
	// columns are allocated once, at their exact size on the heap or
	// mapped when they fill a huge page (colmem.go): local arrays stay
	// sorted because the global order is preserved per shard. The fill
	// also samples every native.PageKeys-th local key into the shard's
	// page sample (native.Sample's layout), the top level of the drains'
	// two-level search, so no second pass walks the columns.
	counts := make([]int, cfg.Shards)
	for _, v := range sorted {
		counts[shardOf(v, cfg.Shards)]++
	}
	// The fill appends to per-shard slices, not through the column sets:
	// writing through a *colSet made it about 1.7× slower (2^16 keys, 2
	// shards).
	cols := make([]colSet, cfg.Shards)
	locVals := make([][]uint64, cfg.Shards)
	locCodes := make([][]uint32, cfg.Shards)
	locTop := make([][]uint64, cfg.Shards)
	for i, c := range counts {
		cols[i] = newColSet(c)
		locVals[i], locCodes[i], locTop[i] = cols[i].keys, cols[i].codes, cols[i].top
	}
	for code, v := range sorted {
		i := shardOf(v, cfg.Shards)
		if len(locVals[i])%native.PageKeys == 0 {
			locTop[i] = append(locTop[i], v)
		}
		locVals[i] = append(locVals[i], v)
		locCodes[i] = append(locCodes[i], uint32(code))
	}
	for i := range cols {
		cols[i].keys, cols[i].codes, cols[i].top = locVals[i], locCodes[i], locTop[i]
	}

	// Partition the build side by the same key hash, resolving each
	// tuple's key to its global code (a tuple's key and its dictionary
	// entry land on the same shard, so the dictionary→probe pipeline
	// never crosses shards). Keys outside the domain are dropped.
	joinTabs := make([]*nativejoin.Table, cfg.Shards) // all nil without a build side
	if o.hasBuild {
		// Size every shard's table by the tuples whose keys hash to it (an
		// upper bound: the ones outside the domain are still in), then
		// resolve and insert in one pass. The resolution is the service's
		// own index join over the whole sorted domain, so it runs
		// interleaved like the ones it serves: a chunk of keys at a time
		// through the lockstep kernel.
		clear(counts)
		for _, t := range o.build {
			counts[shardOf(t.Key, cfg.Shards)]++
		}
		for i := range joinTabs {
			joinTabs[i] = nativejoin.New(counts[i])
		}
		const chunk, group = 4096, 32
		keys, pos := make([]uint64, chunk), make([]int, chunk)
		for tuples := range slices.Chunk(o.build, chunk) {
			for i, t := range tuples {
				keys[i] = t.Key
			}
			native.RunGP(sorted, keys[:len(tuples)], group, pos)
			for i, t := range tuples {
				// p < n: on an empty domain the search answers 0, and
				// there is no sorted[0] to compare with.
				if p := pos[i]; p < n && sorted[p] == t.Key {
					joinTabs[shardOf(t.Key, cfg.Shards)].Insert(uint64(p), t.Payload)
				}
			}
		}
	}

	s := &Service{cfg: cfg, hasBuild: o.hasBuild, snapReads: o.snapReads, obsv: o.obsv}
	s.pins.init()
	if o.obsv != nil {
		s.admit = o.obsv.Ring("admit")
		o.obsv.Registry().RegisterCounter("serve_dropped_shed", &s.shedDrops)
		o.obsv.Registry().RegisterCounter("serve_dropped_closed", &s.closedDrops)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:        i,
			in:        make(chan shardMsg, cfg.QueueDepth),
			ctl:       newController(cfg),
			met:       &shardMetrics{},
			rebuildAt: cfg.RebuildThreshold,
			hz:        &s.horizon,
			pins:      &s.pins,
		}
		sh.attachObserver(o.obsv)
		c := cols[i]
		ep := &epochState{idx: newIndex(c.keys, c.codes, c.top, joinTabs[i]), cols: c}
		sh.epoch.Store(ep)
		sh.retained = []*epochState{ep}
		sh.met.setRetained(1)
		sh.met.setColumnBytes(c.bytes())
		sh.met.group.Set(int64(cfg.Group))
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.run(&s.wg)
	}
	s.b = newBatcher(cfg.MaxBatch, s.dispatch)
	return s, nil
}

// Submit admits one asynchronous typed operation. A nil ctx never
// cancels; a ctx cancelled before the owning shard drains the request
// drops it (the key is never probed, a write never applied) with a
// Dropped result. A Submit that races or follows Close completes
// immediately with Future.Err() == ErrClosed and a Dropped result — a
// producer draining live traffic at shutdown gets a refusal, never a
// panic. OpJoin requires a service built WithBuild; OpRange requires
// Range/RangeBatch (a range fans out to every shard and cannot be
// routed by key).
//
// The group-commit batcher appends the op to the open admission batch,
// and the sealed batch is one op column, admitted and drained exactly
// like an ApplyBatch column (see its ordering contract): within a batch
// a shard executes its ops in submission order, and batches in the
// order they were sealed, so a single client's ops on one key execute
// in submission order even when it does not wait between them;
// concurrent clients race at admission as usual.
func (s *Service) Submit(ctx context.Context, op Op) *Future {
	s.checkOp(op)
	if !s.closed.Load() {
		if f := s.b.add(Future{op: op, ctx: ctx, enq: time.Now()}); f != nil {
			return f
		}
	}
	s.closedDrops.Inc()
	return refused(op, ErrClosed)
}

// Shed records n requests dropped by an admission front-end before they
// reached the service — a tenant quota or queue-depth backpressure in
// the wire layer refusing work the shards never saw. The count surfaces
// as Stats.DroppedShed next to the cancellation and ErrClosed reasons,
// so deliberate load shedding is distinguishable from client
// cancellations.
func (s *Service) Shed(n int) {
	if n > 0 {
		s.shedDrops.Add(uint64(n))
	}
}

// HasBuild reports whether the service carries a build side — whether
// OpJoin is admissible. Front-ends validating remote requests check it
// instead of tripping checkOp's panic.
func (s *Service) HasBuild() bool { return s.hasBuild }

// Shards reports the service's partition count.
func (s *Service) Shards() int { return len(s.shards) }

// checkOp validates an operation at point/vector admission, panicking
// on misuse (as Submit always has for unknown kinds): OpJoin requires a
// build side, OpRange cannot be routed by key hash and must go through
// Range/RangeBatch, and OpInsert must not carry the NotFound sentinel as
// its value.
func (s *Service) checkOp(op Op) {
	if op.Kind >= nOpKinds {
		panic("serve: unknown op kind " + op.Kind.String())
	}
	if op.Kind == OpRange {
		panic("serve: OpRange requires Range/RangeBatch admission")
	}
	if op.Kind == OpJoin && !s.hasBuild {
		panic("serve: OpJoin on a service without a build side")
	}
	if op.Kind == OpInsert && op.Val == NotFound {
		panic("serve: OpInsert value collides with the NotFound sentinel")
	}
}

// Go submits one asynchronous lookup: Submit(ctx, Op{Kind: OpLookup, Key: key}).
func (s *Service) Go(ctx context.Context, key uint64) *Future {
	return s.Submit(ctx, Op{Kind: OpLookup, Key: key})
}

// Lookup is the synchronous convenience wrapper around Go.
func (s *Service) Lookup(ctx context.Context, key uint64) Result { return s.Go(ctx, key).Wait() }

// GoJoin submits one asynchronous join probe: resolve key against the
// dictionary, then aggregate over every matching build tuple.
func (s *Service) GoJoin(ctx context.Context, key uint64) *Future {
	return s.Submit(ctx, Op{Kind: OpJoin, Key: key})
}

// Join is the synchronous convenience wrapper around GoJoin.
func (s *Service) Join(ctx context.Context, key uint64) JoinResult {
	return s.GoJoin(ctx, key).WaitJoin()
}

// Insert submits one asynchronous upsert: after it completes, lookups of
// key resolve to val (Submit(ctx, Op{Kind: OpInsert, Key: key, Val: val})). The write
// lands in the owning shard's sorted delta — probed in front of the
// index by every subsequent drain — and is bulk-merged into the shard's
// index by a background epoch rebuild once the delta reaches the
// rebuild threshold. val must not be the NotFound sentinel.
func (s *Service) Insert(ctx context.Context, key uint64, val uint32) *Future {
	return s.Submit(ctx, Op{Kind: OpInsert, Key: key, Val: val})
}

// Delete submits one asynchronous delete: after it completes, lookups of
// key miss. Deleting an absent key is a no-op that still completes.
func (s *Service) Delete(ctx context.Context, key uint64) *Future {
	return s.Submit(ctx, Op{Kind: OpDelete, Key: key})
}

// dispatch admits one sealed point batch: the ops of its slab become
// the batch's op column, admitted by the same body as an ApplyBatch
// column. It takes no admission gate — the batcher's own close ordering
// flushes the last batch before Close shuts the shard queues. Under
// WithSnapshotReads the batch pins the commit horizon once, released
// when its last segment completes; the pin happens here (after
// admission succeeded) so refused futures never pin.
func (s *Service) dispatch(bf *BatchFuture) {
	bf.ops = make([]Op, len(bf.futs))
	for i := range bf.futs {
		bf.ops[i] = bf.futs[i].op
	}
	s.admitOps(bf, s.snapReads)
}

// Close seals the pending admission batch, drains every shard, stops
// the shard goroutines and frees their columns. All requests admitted
// before Close complete. A service that is never closed keeps its
// mapped columns until the process exits.
// Close is idempotent and safe to call concurrently (every call waits
// for the shutdown to finish). Every admission path may race Close
// freely: a point submission losing the race is refused by the batcher,
// and the vectorized/range paths (SubmitBatch/ApplyBatch/RangeBatch)
// hold the admission gate across their dispatch, so Close waits for
// in-flight dispatches before closing the shard queues and any later
// submission completes immediately with Err() == ErrClosed.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		s.b.close()
		// Taking the gate's write side flushes out any vectorized/range
		// admission that won its read lock before closed was visible; the
		// queues close only once no dispatch is in flight, and later
		// admissions observe closed under their read lock and refuse.
		s.admitGate.Lock()
		for _, sh := range s.shards {
			close(sh.in)
		}
		s.admitGate.Unlock()
		s.wg.Wait()
		for _, sh := range s.shards {
			sh.freeColumns()
		}
	})
}

// Stats snapshots service metrics. Safe to call concurrently with
// serving.
func (s *Service) Stats() Stats {
	var st Stats
	var perClass [nOpClasses][histBuckets]uint64
	for _, sh := range s.shards {
		ss := sh.met.snapshot(sh.id)
		ss.GroupHistory = sh.ctl.History()
		st.Shards = append(st.Shards, ss)
		st.Items += ss.Items
		st.DroppedCancelled += ss.Dropped
		st.Joins += ss.Joins
		st.JoinHits += ss.JoinHits
		st.Ranges += ss.Ranges
		st.RangeEntries += ss.RangeEntries
		st.Inserts += ss.Inserts
		st.Deletes += ss.Deletes
		st.WriteBusy += ss.WriteBusy
		st.WriteStalls += ss.WriteStalls
		st.Rebuilds += ss.Rebuilds
		st.RebuildPause += ss.RebuildPause
		if ss.MaxRebuildPause > st.MaxRebuildPause {
			st.MaxRebuildPause = ss.MaxRebuildPause
		}
		for c := opClass(0); c < nOpClasses; c++ {
			sh.met.lat[c].AddTo(&perClass[c])
		}
	}
	st.DroppedShed = s.shedDrops.Load()
	st.DroppedClosed = s.closedDrops.Load()
	st.Dropped = st.DroppedCancelled + st.DroppedShed + st.DroppedClosed
	var blended [histBuckets]uint64
	for c := opClass(0); c < nOpClasses; c++ {
		ol := st.PerOp.byClass(c)
		for b, n := range perClass[c] {
			ol.Count += n
			blended[b] += n
		}
		ol.P50 = quantileOf(&perClass[c], 0.50)
		ol.P99 = quantileOf(&perClass[c], 0.99)
	}
	st.P50 = quantileOf(&blended, 0.50)
	st.P99 = quantileOf(&blended, 0.99)
	return st
}
