package serve

import (
	"context"
	"maps"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file pins the cross-shard atomic batch contract: ApplyBatchAtomic
// writes become visible all-or-nothing to snapshot readers, pinned
// snapshots survive epoch churn through the retained ring, and the
// WithSnapshotReads service mode routes plain reads through the same
// machinery.

// atomicKeys returns nKeys spread keys disjoint from the test domains
// and from the plain-churn keyspace (9000+).
func atomicKeys(nKeys int) []uint64 {
	keys := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = uint64(2000 + i*11)
	}
	return keys
}

// versionOps builds the ops column writing version v to every key.
func versionOps(keys []uint64, v uint32) []Op {
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: OpInsert, Key: k, Val: v}
	}
	return ops
}

// checkUniformVersion asserts a snapshot read of the version keys is
// all-or-nothing: either every key is absent (before the first commit)
// or every key carries the same version. Returns the version (0 when
// absent).
func checkUniformVersion(t *testing.T, who string, keys []uint64, res []Result) uint32 {
	t.Helper()
	found := 0
	for _, r := range res {
		if r.Found {
			found++
		}
	}
	if found == 0 {
		return 0
	}
	if found != len(keys) {
		t.Fatalf("%s: torn atomic batch: %d of %d keys visible", who, found, len(keys))
	}
	v := res[0].Code
	for i, r := range res {
		if r.Code != v {
			t.Fatalf("%s: torn atomic batch: key %d at version %d, key %d at version %d",
				who, keys[0], v, keys[i], r.Code)
		}
	}
	return v
}

// TestApplyBatchAtomicCommitVisibility: before an atomic batch's Wait
// returns nothing of it is promised anywhere; after Wait, a subsequently
// admitted read sees all of it on every shard.
func TestApplyBatchAtomicCommitVisibility(t *testing.T) {
	keys := atomicKeys(16)
	s, err := New(testDomain(64, 1), WithShards(4), WithRebuildThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for _, r := range s.GoBatchAt(ctx, keys, nil).Wait() {
		if r.Found {
			t.Fatal("version keys visible before any write")
		}
	}
	for v := uint32(1); v <= 5; v++ {
		bf := s.ApplyBatchAtomic(ctx, versionOps(keys, v))
		if res := bf.Wait(); len(res) != len(keys) {
			t.Fatalf("atomic batch acked %d ops, want %d", len(res), len(keys))
		}
		if bf.Err() != nil || bf.Dropped() > 0 {
			t.Fatalf("atomic batch err=%v dropped=%d", bf.Err(), bf.Dropped())
		}
		got := checkUniformVersion(t, "after-commit", keys, s.GoBatchAt(ctx, keys, nil).Wait())
		if got != v {
			t.Fatalf("after commit of version %d, snapshot read saw version %d", v, got)
		}
	}
	// A cancelled atomic batch is refused whole: no seq is minted, so the
	// commit horizon cannot wedge behind it.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	bf := s.ApplyBatchAtomic(cancelled, versionOps(keys, 99))
	bf.Wait()
	if bf.Dropped() != len(keys) {
		t.Fatalf("cancelled atomic batch dropped %d of %d", bf.Dropped(), len(keys))
	}
	// The horizon still advances for later batches.
	s.ApplyBatchAtomic(ctx, versionOps(keys, 6)).Wait()
	if got := checkUniformVersion(t, "after-cancel", keys, s.GoBatchAt(ctx, keys, nil).Wait()); got != 6 {
		t.Fatalf("post-cancel commit saw version %d, want 6", got)
	}
}

// TestAtomicBatchSnapshotIsolation is the differential atomicity pin:
// one writer commits versions of a cross-shard key set via
// ApplyBatchAtomic while concurrent snapshot readers — point batches
// pinned per admission and range scans pinned per batch — hammer the
// set. No reader may ever observe a partially applied
// batch (mixed versions, or a strict subset of the keys), and each
// reader's observed version must be monotone (the commit horizon only
// grows). Plain-write churn on a disjoint keyspace keeps merges and
// installs in flight so reads cross generation and retained-ring
// boundaries, not just the live delta.
func TestAtomicBatchSnapshotIsolation(t *testing.T) {
	const nKeys = 16
	versions := uint32(40)
	if testing.Short() {
		versions = 12
	}
	keys := atomicKeys(nKeys)
	lo, hi := keys[0], keys[nKeys-1]
	s, err := New(testDomain(64, 1), WithShards(4), WithRebuildThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var done atomic.Bool
	var wg sync.WaitGroup
	var maxSeen atomic.Uint32
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := uint32(0)
			for !done.Load() {
				probe := append([]uint64(nil), keys...)
				v := checkUniformVersion(t, "point-reader", keys, s.GoBatchAt(ctx, probe, nil).Wait())
				if v < last {
					t.Errorf("point reader %d: version went backwards %d -> %d", r, last, v)
					return
				}
				last = v
				if v > maxSeen.Load() {
					maxSeen.Store(v)
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint32(0)
		for !done.Load() {
			rf := s.RangeBatchAt(ctx, []Op{RangeOp(lo, hi, 0)}, nil)
			ents := rf.Collect(0)
			if len(ents) == 0 {
				continue
			}
			if len(ents) != nKeys {
				t.Errorf("range reader: torn atomic batch: %d of %d keys visible", len(ents), nKeys)
				return
			}
			v := ents[0].Code
			for _, e := range ents {
				if e.Code != v {
					t.Errorf("range reader: torn atomic batch: versions %d and %d coexist", v, e.Code)
					return
				}
			}
			if v < last {
				t.Errorf("range reader: version went backwards %d -> %d", last, v)
				return
			}
			last = v
		}
	}()
	rng := rand.New(rand.NewPCG(21, 0))
	for v := uint32(1); v <= versions; v++ {
		s.ApplyBatchAtomic(ctx, versionOps(keys, v)).Wait()
		// Plain churn on a disjoint keyspace: forces freezes, merges,
		// and installs underneath the readers.
		for w := 0; w < 6; w++ {
			s.Insert(ctx, 9000+rng.Uint64N(200), v).Wait()
		}
	}
	done.Store(true)
	wg.Wait()
	st := s.Stats()
	s.Close()
	if t.Failed() {
		t.Fatal("atomicity violated")
	}
	if st.Rebuilds == 0 {
		t.Fatal("churn forced no rebuilds — isolation never crossed an install")
	}
	if maxSeen.Load() == 0 {
		t.Fatal("readers never observed a committed version")
	}
}

// TestRetainedEpochsGauge: retention by pin, read through the
// RetainedEpochs and ColumnBytes gauges, in a world whose columns stay on
// the heap and in one whose columns fill huge pages. With no pin, a
// stream of installs leaves one epoch and at most two column sets (the
// current epoch's and the spare). A pin held across three or more
// installs under concurrent atomic writers keeps the epochs it can step
// back to, and its point and range reads match the oracle of the writes
// committed before it. After its release the next install drops those
// epochs again.
func TestRetainedEpochsGauge(t *testing.T) {
	for _, w := range []struct {
		name   string
		domain []uint64
	}{{"heap", testDomain(4096, 2)}, {"huge", bigDomain(1)}} {
		t.Run(w.name, func(t *testing.T) { testRetentionByPin(t, w.domain) })
	}
}

// pinWriters is the concurrent writer set of testRetentionByPin: writer w
// owns the keys lo+j of [lo, lo+span) with j%len(own) == w — even ones in
// the domain, odd ones fresh — and writes them in small atomic batches,
// keeping its own model of their committed state.
type pinWriters struct {
	s   *Service
	lo  uint64
	own []map[uint64]uint32
}

const (
	pinSpan  = 512 // keys the writers share out
	pinBatch = 4   // ops per atomic batch
)

// run lets the writers write until done reports true, polled by the test
// goroutine between calls of each, and then stops them.
func (pw *pinWriters) run(t *testing.T, seed uint64, done func() bool) {
	t.Helper()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range pw.own {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)))
			ops := make([]Op, pinBatch)
			for !stop.Load() {
				for i := range ops {
					k := pw.lo + uint64(len(pw.own))*rng.Uint64N(pinSpan/uint64(len(pw.own))) + uint64(w)
					ops[i] = Op{Kind: OpInsert, Key: k, Val: rng.Uint32N(1 << 30)}
					if rng.Uint64N(4) == 0 {
						ops[i] = Op{Kind: OpDelete, Key: k}
					}
				}
				pw.s.ApplyBatchAtomic(context.Background(), ops).Wait()
				for _, op := range ops {
					if op.Kind == OpDelete {
						delete(pw.own[w], op.Key)
					} else {
						pw.own[w][op.Key] = op.Val
					}
				}
			}
		}(w)
	}
	for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatal("writers forced too few installs within 10 s")
		}
	}
	stop.Store(true)
	wg.Wait()
}

// oracle is the committed state of the writers' key range.
func (pw *pinWriters) oracle() map[uint64]uint32 {
	m := map[uint64]uint32{}
	for _, own := range pw.own {
		maps.Copy(m, own)
	}
	return m
}

func testRetentionByPin(t *testing.T, domain []uint64) {
	const threshold, writers = 8, 2
	s, err := New(domain, WithShards(1), WithRebuildThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh := s.shards[0]
	pw := &pinWriters{s: s, lo: domain[0], own: make([]map[uint64]uint32, writers)}
	for w := range pw.own {
		pw.own[w] = map[uint64]uint32{}
	}
	for code, k := range domain {
		if k-pw.lo < pinSpan {
			pw.own[(k-pw.lo)%writers][k] = uint32(code)
		}
	}
	// A column set is at most as large as the spare a merge over the
	// longest column the writers can leave allocates.
	m := len(domain) + pinSpan/2 + threshold + pinBatch
	m += spareGens * threshold
	maxSet := func() int64 { c := newColSet(m); defer c.free(); return c.bytes() }()
	epoch := func() uint64 { return s.Stats().Shards[0].Epoch }
	// unpinned checks the no-pin rule on every Stats read.
	unpinned := func(target uint64) func() bool {
		return func() bool {
			st := s.Stats().Shards[0]
			if st.RetainedEpochs != 1 || st.ColumnBytes > 2*maxSet {
				t.Errorf("no pin, epoch %d: %d epochs and %d column bytes retained, want 1 and at most two sets (%d)",
					st.Epoch, st.RetainedEpochs, st.ColumnBytes, 2*maxSet)
			}
			return st.Epoch >= target
		}
	}
	pw.run(t, 1, unpinned(epoch()+6))

	// Pin, then keep writing across at least three installs while the
	// pinned reads check the oracle of the writes committed before it.
	want := pw.oracle()
	sn := s.Snapshot()
	probe := make([]uint64, pinSpan)
	for i := range probe {
		probe[i] = pw.lo + uint64(i)
	}
	readAtPin := func() {
		t.Helper()
		for i, r := range s.GoBatchAt(context.Background(), probe, sn).Wait() {
			v, ok := want[probe[i]]
			if r.Found != ok || ok && r.Code != v {
				t.Fatalf("pinned lookup(%d) = %+v, oracle %d (present %v)", probe[i], r, v, ok)
			}
		}
		got := s.RangeBatchAt(context.Background(), []Op{RangeOp(pw.lo, pw.lo+pinSpan-1, 0)}, sn).Collect(0)
		if wantR := sortedRange(want, pw.lo, pw.lo+pinSpan-1, 0); !slices.Equal(got, wantR) {
			t.Fatalf("pinned range: %d entries, oracle %d", len(got), len(wantR))
		}
	}
	pinned := epoch()
	pw.run(t, 2, func() bool {
		readAtPin()
		return epoch() >= pinned+3
	})
	readAtPin()
	// The shard is idle: its ring is stable, and ordered before this
	// read by the last batch's completion.
	st := s.Stats().Shards[0]
	held := sh.retained
	if st.RetainedEpochs != len(held) || len(held) < 2 || held[0].upTo > sn.Seq() {
		t.Fatalf("pinned at %d: gauge %d, ring of %d epochs from upTo %d, want the pin's epoch and every later one",
			sn.Seq(), st.RetainedEpochs, len(held), held[0].upTo)
	}
	bytes := sh.spare.bytes()
	for _, ep := range held {
		if ep.cols.bytes() == 0 {
			t.Fatalf("pinned epoch %d holds no column set", ep.seq)
		}
		bytes += ep.cols.bytes()
	}
	if st.ColumnBytes != bytes {
		t.Fatalf("ColumnBytes %d with %d epochs pinned, their sets and the spare hold %d", st.ColumnBytes, len(held), bytes)
	}

	sn.Release()
	released := epoch()
	pw.run(t, 3, func() bool { return epoch() > released })
	if st := s.Stats().Shards[0]; st.RetainedEpochs != 1 || st.ColumnBytes > 2*maxSet {
		t.Fatalf("after the release and an install: %d epochs and %d column bytes retained, want 1 and at most two sets (%d)",
			st.RetainedEpochs, st.ColumnBytes, 2*maxSet)
	}
}

// TestPinnedSnapshotSurvivesChurn: a Snap taken at version p keeps
// reading exactly version p after many newer atomic commits and forced
// epoch churn — the retained ring and its absorbed-generation replay
// must serve the pinned horizon even once the live column has merged
// far past it. (Only atomic-batch visibility is pinned; the churn
// writes stay on a disjoint keyspace.)
func TestPinnedSnapshotSurvivesChurn(t *testing.T) {
	const nKeys = 12
	keys := atomicKeys(nKeys)
	s, err := New(testDomain(64, 1), WithShards(3), WithRebuildThreshold(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	const pinAt = 3
	var sn *Snap
	for v := uint32(1); v <= 20; v++ {
		s.ApplyBatchAtomic(ctx, versionOps(keys, v)).Wait()
		if v == pinAt {
			sn = s.Snapshot()
		}
		for w := 0; w < 8; w++ {
			s.Insert(ctx, 9000+uint64(v)*10+uint64(w), v).Wait()
		}
	}
	defer sn.Release()
	if got := checkUniformVersion(t, "pinned", keys, s.GoBatchAt(ctx, keys, sn).Wait()); got != pinAt {
		t.Fatalf("pinned snapshot read version %d, want %d", got, pinAt)
	}
	rf := s.RangeBatchAt(ctx, []Op{RangeOp(keys[0], keys[nKeys-1], 0)}, sn)
	ents := rf.Collect(0)
	if len(ents) != nKeys {
		t.Fatalf("pinned range saw %d of %d keys", len(ents), nKeys)
	}
	for _, e := range ents {
		if e.Code != pinAt {
			t.Fatalf("pinned range saw version %d, want %d", e.Code, pinAt)
		}
	}
	// A latest read still sees the newest version.
	if got := checkUniformVersion(t, "latest", keys, s.GoBatchAt(ctx, keys, nil).Wait()); got != 20 {
		t.Fatalf("latest read version %d, want 20", got)
	}
	if st := s.Stats(); st.Rebuilds == 0 {
		t.Fatal("churn forced no rebuilds — the pin was never tested against reclaim")
	}
}

// TestApplyBatchAtPinsReads: ApplyBatchAt reads an op column at the
// pin — a Snap's horizon, or the horizon at admission for a nil one —
// while the column's own plain write stays visible to its later read.
func TestApplyBatchAtPinsReads(t *testing.T) {
	keys := atomicKeys(6)
	s, err := New(testDomain(64, 1), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	s.ApplyBatchAtomic(ctx, versionOps(keys, 1)).Wait()
	sn := s.Snapshot()
	defer sn.Release()
	s.ApplyBatchAtomic(ctx, versionOps(keys, 2)).Wait()
	col := []Op{{Kind: OpInsert, Key: 9001, Val: 5}}
	for _, k := range keys {
		col = append(col, Op{Kind: OpLookup, Key: k})
	}
	col = append(col, Op{Kind: OpLookup, Key: 9001})
	for _, c := range []struct {
		sn   *Snap
		want uint32
	}{{sn, 1}, {nil, 2}} {
		res := s.ApplyBatchAt(ctx, col, c.sn).Wait()
		if got := checkUniformVersion(t, "ApplyBatchAt", keys, res[1:len(keys)+1]); got != c.want {
			t.Fatalf("ApplyBatchAt(pinned %v) read version %d, want %d", c.sn != nil, got, c.want)
		}
		if r := res[len(res)-1]; r != (Result{Code: 5, Found: true}) {
			t.Fatalf("the column's own write read back as %+v", r)
		}
	}
}

// TestWithSnapshotReadsMode: the service-wide option routes plain reads
// through admission-time pins — point futures in one sealed batch share
// one snapshot, vectorized batches pin per batch — and everything stays
// correct under write churn.
func TestWithSnapshotReadsMode(t *testing.T) {
	keys := atomicKeys(8)
	s, err := New(testDomain(64, 1), WithShards(2), WithRebuildThreshold(4),
		WithSnapshotReads(true), WithAdmission(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for v := uint32(1); v <= 6; v++ {
		s.ApplyBatchAtomic(ctx, versionOps(keys, v)).Wait()
	}
	// Plain point reads and plain batch reads both see the committed state.
	for _, k := range keys {
		if r := s.Lookup(ctx, k); !r.Found || r.Code != 6 {
			t.Fatalf("snapshot-mode lookup(%d) = %+v, want version 6", k, r)
		}
	}
	if got := checkUniformVersion(t, "snap-mode batch", keys, s.GoBatch(ctx, append([]uint64(nil), keys...)).Wait()); got != 6 {
		t.Fatalf("snapshot-mode batch read version %d, want 6", got)
	}
	// Plain writes remain immediately visible (snapshot mode pins only
	// atomic-batch visibility, not a repeatable read).
	s.Insert(ctx, 7777, 42).Wait()
	if r := s.Lookup(ctx, 7777); !r.Found || r.Code != 42 {
		t.Fatalf("plain write invisible under snapshot mode: %+v", r)
	}
	if st := s.Stats(); st.Items == 0 {
		t.Fatalf("no items recorded: %+v", st)
	}
}
