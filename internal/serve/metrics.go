package serve

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file is the serve metrics layer over the obs primitives. The
// log-bucketed latency histogram the shards originally grew here was
// lifted into internal/obs (obs.Histogram — same bucket layout, now with
// midpoint quantiles); what remains is the serve-specific shape: one
// shardMetrics struct of counters/gauges/histograms per shard, written
// lock-free by the owning shard goroutine, snapshotted concurrently by
// Stats, and — when the service carries an obs.Observer — registered by
// name into the observer's registry so exposition reads the live atomics.
const histBuckets = obs.NumBuckets

// histBucket, bucketFloor, and quantileOf keep the historical serve
// names as thin wrappers over the obs mapping (the metrics tests pin the
// bucket semantics here, where latencies are time.Durations).
func histBucket(v uint64) int  { return obs.Bucket(v) }
func bucketFloor(b int) uint64 { return obs.BucketFloor(b) }
func bucketMid(b int) uint64   { return obs.BucketMid(b) }
func quantileOf(counts *[histBuckets]uint64, q float64) time.Duration {
	return time.Duration(obs.QuantileOf(counts, q))
}

// opClass folds the request kinds into the four latency populations
// worth separating: point/vector lookups, join probes, range scans, and
// write acknowledgements. Separating them keeps an op-mix shift from
// masquerading as a latency regression — a workload drifting from
// lookups toward wide ranges moves the blended quantiles with no
// per-request change at all.
type opClass uint8

const (
	classLookup opClass = iota
	classJoin
	classRange
	classWrite
	nOpClasses
)

func classOf(k OpKind) opClass {
	switch k {
	case OpJoin:
		return classJoin
	case OpRange:
		return classRange
	case OpInsert, OpDelete:
		return classWrite
	}
	return classLookup
}

func (c opClass) String() string {
	switch c {
	case classJoin:
		return "join"
	case classRange:
		return "range"
	case classWrite:
		return "write"
	}
	return "lookup"
}

// shardMetrics are one shard's counters. The shard goroutine writes;
// snapshots read concurrently. The items/batches/busy triple counts
// kernel drains only (lookups, joins, range scans — work that went
// through an interleaved kernel at a group size); applied writes are
// counted by the write-path counters below, so Batches, Group and
// Busy are never diluted by write runs that used no kernel.
type shardMetrics struct {
	items    obs.Counter
	batches  obs.Counter
	busyNS   obs.Counter
	joins    obs.Counter
	joinHits obs.Counter
	ranges   obs.Counter
	rangeEnt obs.Counter
	dropped  obs.Counter
	group    obs.Gauge // group used for the most recent kernel batch
	// lat holds one request-latency histogram per op class (lookup, join,
	// range, write-ack), replacing the old blended histogram; blended
	// quantiles are still reported, computed from the summed buckets.
	lat [nOpClasses]obs.Histogram

	// Write-path counters: applied writes, time spent applying them
	// (merge steps included), the delta-size gauge, write stalls (freezes
	// that had to finish the previous merge first), the frozen-generation
	// (0 or 1), retained-epoch depth and column-memory gauges, and the
	// epoch rebuilds with their install pauses.
	inserts      obs.Counter
	deletes      obs.Counter
	wBusyNS      obs.Counter
	stalls       obs.Counter
	deltaLen     obs.Gauge
	genDepth     obs.Gauge
	retainedEp   obs.Gauge
	colBytes     obs.Gauge
	epoch        obs.Gauge
	rebuilds     obs.Counter
	rebuildNS    obs.Counter
	rebuildMaxNS obs.Gauge
}

// register adopts the shard's live metrics into the observer's registry
// under serve_* names labeled by shard, so the HTTP/JSON exposition
// reads the same atomics the hot path writes. Construction-time only.
func (m *shardMetrics) register(reg *obs.Registry, shard int) {
	if reg == nil {
		return
	}
	s := strconv.Itoa(shard)
	reg.RegisterCounter(obs.Name("serve_items", "shard", s), &m.items)
	reg.RegisterCounter(obs.Name("serve_batches", "shard", s), &m.batches)
	reg.RegisterCounter(obs.Name("serve_busy_ns", "shard", s), &m.busyNS)
	reg.RegisterCounter(obs.Name("serve_joins", "shard", s), &m.joins)
	reg.RegisterCounter(obs.Name("serve_join_hits", "shard", s), &m.joinHits)
	reg.RegisterCounter(obs.Name("serve_ranges", "shard", s), &m.ranges)
	reg.RegisterCounter(obs.Name("serve_range_entries", "shard", s), &m.rangeEnt)
	reg.RegisterCounter(obs.Name("serve_dropped", "shard", s), &m.dropped)
	reg.RegisterGauge(obs.Name("serve_group", "shard", s), &m.group)
	for c := opClass(0); c < nOpClasses; c++ {
		reg.RegisterHistogram(obs.Name("serve_latency_ns", "shard", s, "op", c.String()), &m.lat[c])
	}
	reg.RegisterCounter(obs.Name("serve_inserts", "shard", s), &m.inserts)
	reg.RegisterCounter(obs.Name("serve_deletes", "shard", s), &m.deletes)
	reg.RegisterCounter(obs.Name("serve_write_busy_ns", "shard", s), &m.wBusyNS)
	reg.RegisterCounter(obs.Name("serve_write_stalls", "shard", s), &m.stalls)
	reg.RegisterGauge(obs.Name("serve_delta_len", "shard", s), &m.deltaLen)
	reg.RegisterGauge(obs.Name("serve_frozen_gens", "shard", s), &m.genDepth)
	reg.RegisterGauge(obs.Name("serve_retained_epochs", "shard", s), &m.retainedEp)
	reg.RegisterGauge(obs.Name("serve_column_bytes", "shard", s), &m.colBytes)
	reg.RegisterGauge(obs.Name("serve_epoch", "shard", s), &m.epoch)
	reg.RegisterCounter(obs.Name("serve_rebuilds", "shard", s), &m.rebuilds)
	reg.RegisterCounter(obs.Name("serve_rebuild_ns", "shard", s), &m.rebuildNS)
	reg.RegisterGauge(obs.Name("serve_rebuild_max_ns", "shard", s), &m.rebuildMaxNS)
}

// recordLatency records one request's queue-to-complete latency into its
// op class histogram.
func (m *shardMetrics) recordLatency(c opClass, d time.Duration) {
	m.lat[c].Observe(int64(d))
}

// recordLatencyN records n same-latency observations (a vectorized
// segment completes all its items at once).
func (m *shardMetrics) recordLatencyN(c opClass, d time.Duration, n uint64) {
	m.lat[c].ObserveN(int64(d), n)
}

func (m *shardMetrics) recordBatch(items, group int, busy time.Duration) {
	m.items.Add(uint64(items))
	m.batches.Add(1)
	m.busyNS.Add(uint64(busy))
	m.group.Set(int64(group))
}

// recordRanges counts drained range scans (segments of fanned-out range
// batches) and the entries they emitted after the delta merge.
func (m *shardMetrics) recordRanges(ranges, entries uint64) {
	if ranges == 0 {
		return
	}
	m.ranges.Add(ranges)
	m.rangeEnt.Add(entries)
}

// recordWriteBusy accounts time spent applying writes to the delta —
// outside the kernel busy time.
func (m *shardMetrics) recordWriteBusy(busy time.Duration) {
	m.wBusyNS.Add(uint64(busy))
}

// recordWriteStall counts one write that waited on a merge: a freeze
// found the previous merge unfinished and ran it to the end before
// freezing. The per-write merge step makes this unreachable; the counter
// reads 0 unless that arithmetic is broken.
func (m *shardMetrics) recordWriteStall() {
	m.stalls.Add(1)
}

// setGenDepth / setRetained / setColumnBytes refresh the
// frozen-generation count (0 or 1), retained-epoch ring depth and
// column-memory gauges.
func (m *shardMetrics) setGenDepth(n int)      { m.genDepth.Set(int64(n)) }
func (m *shardMetrics) setRetained(n int)      { m.retainedEp.Set(int64(n)) }
func (m *shardMetrics) setColumnBytes(n int64) { m.colBytes.Set(n) }

func (m *shardMetrics) recordJoins(joins, hits uint64) {
	if joins == 0 {
		return
	}
	m.joins.Add(joins)
	m.joinHits.Add(hits)
}

// recordDropped counts requests dropped before drain (context cancelled
// or deadline expired by the time their shard dequeued them).
func (m *shardMetrics) recordDropped(n uint64) {
	if n == 0 {
		return
	}
	m.dropped.Add(n)
}

// recordInsert / recordDelete count one applied write and refresh the
// delta-size gauge.
func (m *shardMetrics) recordInsert(deltaLen int) {
	m.inserts.Add(1)
	m.deltaLen.Set(int64(deltaLen))
}

func (m *shardMetrics) recordDelete(deltaLen int) {
	m.deletes.Add(1)
	m.deltaLen.Set(int64(deltaLen))
}

// beginRebuild/endRebuild bracket one epoch install (the on-shard index
// construction — the rebuild pause), recording the published epoch
// sequence and the post-install delta size.
func (m *shardMetrics) beginRebuild() time.Time { return time.Now() }

func (m *shardMetrics) endRebuild(start time.Time, seq uint64, deltaLen int) {
	pause := uint64(time.Since(start))
	m.rebuilds.Add(1)
	m.rebuildNS.Add(pause)
	m.rebuildMaxNS.SetMax(int64(pause))
	m.epoch.Set(int64(seq))
	m.deltaLen.Set(int64(deltaLen))
}

// OpLatency is one op class's latency summary: how many requests of the
// class completed and their quantiles.
type OpLatency struct {
	Count    uint64
	P50, P99 time.Duration
}

// OpLatencies splits request latency by operation class, so an op-mix
// shift (say, lookups giving way to wide ranges) cannot masquerade as a
// per-request regression in a blended histogram. Write is the write-ack
// latency (submission to applied acknowledgement).
type OpLatencies struct {
	Lookup, Join, Range, Write OpLatency
}

func (l *OpLatencies) byClass(c opClass) *OpLatency {
	switch c {
	case classJoin:
		return &l.Join
	case classRange:
		return &l.Range
	case classWrite:
		return &l.Write
	}
	return &l.Lookup
}

// ShardStats is one shard's snapshot.
type ShardStats struct {
	Shard int
	// Items counts everything this shard drained: kernel items (lookups,
	// joins, and range segments — a fanned-out range counts one item on
	// every shard) plus applied writes. Batches counts kernel drains
	// only.
	Items   uint64
	Batches uint64
	// Group is the group size of the most recent kernel batch;
	// GroupHistory the controller's per-epoch choices (tail).
	Group        int
	GroupHistory []int
	// Busy is time spent inside the interleaved kernels. Write apply
	// time is WriteBusy, counted separately so Busy reflects only kernel
	// drains.
	Busy time.Duration
	// Joins counts join probes drained by this shard; JoinHits the build
	// tuples they matched in total.
	Joins    uint64
	JoinHits uint64
	// Ranges counts range segments this shard drained (each OpRange
	// visits every shard); RangeEntries the merged entries they emitted.
	Ranges       uint64
	RangeEntries uint64
	// Dropped counts requests whose context was cancelled before this
	// shard drained them; they were never probed and are not in Items.
	Dropped uint64
	// P50/P99 blend every op class (computed from the summed per-class
	// buckets); PerOp separates the classes.
	P50, P99 time.Duration
	PerOp    OpLatencies
	// Inserts and Deletes count applied writes (included in Items);
	// WriteBusy the time spent applying them, including the merge step
	// each write runs and any install it completes; DeltaLen is the live
	// write-delta size after the most recent write or install.
	// WriteStalls counts writes that waited on a merge: a freeze that
	// found the previous merge unfinished and finished it first. The
	// per-write merge step keeps it at 0. FrozenGens is the number of
	// frozen generations (0 or 1: one merge in flight or none),
	// RetainedEpochs the multi-version retained-epoch ring depth after the
	// last reclaim. ColumnBytes is the key and code memory the shard
	// holds: the current epoch's columns, the spare the next merge writes
	// (or the in-flight merge's output) and every pinned epoch's; 0 after
	// Close.
	Inserts        uint64
	Deletes        uint64
	WriteBusy      time.Duration
	WriteStalls    uint64
	DeltaLen       int
	FrozenGens     int
	RetainedEpochs int
	ColumnBytes    int64
	// Epoch is the published snapshot sequence (0 = the domain New was
	// built over); Rebuilds counts installed epoch rebuilds, with
	// RebuildPause the total and MaxRebuildPause the worst single
	// on-shard install pause.
	Epoch           uint64
	Rebuilds        uint64
	RebuildPause    time.Duration
	MaxRebuildPause time.Duration
}

func (m *shardMetrics) snapshot(id int) ShardStats {
	s := ShardStats{
		Shard:           id,
		Items:           m.items.Load() + m.inserts.Load() + m.deletes.Load(),
		Batches:         m.batches.Load(),
		Group:           int(m.group.Load()),
		Busy:            time.Duration(m.busyNS.Load()),
		Joins:           m.joins.Load(),
		JoinHits:        m.joinHits.Load(),
		Ranges:          m.ranges.Load(),
		RangeEntries:    m.rangeEnt.Load(),
		Dropped:         m.dropped.Load(),
		Inserts:         m.inserts.Load(),
		Deletes:         m.deletes.Load(),
		WriteBusy:       time.Duration(m.wBusyNS.Load()),
		WriteStalls:     m.stalls.Load(),
		DeltaLen:        int(m.deltaLen.Load()),
		FrozenGens:      int(m.genDepth.Load()),
		RetainedEpochs:  int(m.retainedEp.Load()),
		ColumnBytes:     m.colBytes.Load(),
		Epoch:           uint64(m.epoch.Load()),
		Rebuilds:        m.rebuilds.Load(),
		RebuildPause:    time.Duration(m.rebuildNS.Load()),
		MaxRebuildPause: time.Duration(m.rebuildMaxNS.Load()),
	}
	var blended [histBuckets]uint64
	for c := opClass(0); c < nOpClasses; c++ {
		var counts [histBuckets]uint64
		m.lat[c].AddTo(&counts)
		ol := s.PerOp.byClass(c)
		ol.Count = m.lat[c].Total()
		ol.P50 = quantileOf(&counts, 0.50)
		ol.P99 = quantileOf(&counts, 0.99)
		for b, n := range counts {
			blended[b] += n
		}
	}
	s.P50 = quantileOf(&blended, 0.50)
	s.P99 = quantileOf(&blended, 0.99)
	return s
}

// PerOpWindow is a reader's cursor for windowed per-op-class latency
// reads (one obs.Window per shard per class, created lazily on first
// use). Each Service.WindowPerOp call with the same window answers only
// the requests completed since the previous call — the sampling
// substrate of the run report's latency time series. Windows are
// reader-local: concurrent samplers each hold their own. Not safe for
// concurrent use of one window.
type PerOpWindow struct {
	w [][nOpClasses]obs.Window // indexed [shard][class]
}

// WindowPerOp returns the per-op-class latencies of the requests
// completed since the previous call on the same window (first call:
// since service start). Safe to call concurrently with serving; the
// shards' histograms are only read.
func (s *Service) WindowPerOp(w *PerOpWindow) OpLatencies {
	if w.w == nil {
		w.w = make([][nOpClasses]obs.Window, len(s.shards))
	}
	var out OpLatencies
	for c := opClass(0); c < nOpClasses; c++ {
		var delta [histBuckets]uint64
		var total uint64
		for i, sh := range s.shards {
			total += w.w[i][c].Delta(&sh.met.lat[c], &delta)
		}
		ol := out.byClass(c)
		ol.Count = total
		ol.P50 = quantileOf(&delta, 0.50)
		ol.P99 = quantileOf(&delta, 0.99)
	}
	return out
}

// Stats is the service-wide snapshot.
type Stats struct {
	Shards   []ShardStats
	Items    uint64
	Joins    uint64
	JoinHits uint64
	// Ranges counts drained range segments service-wide (each OpRange
	// contributes one segment per shard); RangeEntries the merged
	// entries they emitted.
	Ranges       uint64
	RangeEntries uint64
	// Dropped counts requests that completed without being served,
	// service-wide and summed over every reason; Items excludes them.
	// The per-reason split keeps deliberate backpressure distinguishable
	// from client behavior: DroppedCancelled — context cancelled or
	// deadline expired before the owning shard drained the request;
	// DroppedShed — shed by an admission front-end (Service.Shed: tenant
	// quota or queue-depth backpressure) before reaching the shards;
	// DroppedClosed — refused with ErrClosed at or after Close.
	Dropped          uint64
	DroppedCancelled uint64
	DroppedShed      uint64
	DroppedClosed    uint64
	// P50/P99 blend every op class service-wide; PerOp separates
	// lookup/join/range/write-ack latency populations.
	P50, P99 time.Duration
	PerOp    OpLatencies
	// Inserts/Deletes count applied writes service-wide, WriteBusy their
	// total apply time; WriteStalls the writes that waited on a merge (0
	// by the per-write merge step); Rebuilds the installed epoch rebuilds,
	// RebuildPause their total install pause and MaxRebuildPause the
	// worst single pause on any shard.
	Inserts         uint64
	Deletes         uint64
	WriteBusy       time.Duration
	WriteStalls     uint64
	Rebuilds        uint64
	RebuildPause    time.Duration
	MaxRebuildPause time.Duration
}
