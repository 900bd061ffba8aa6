package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotConsistencyUnderRebuilds is the torn-view race test:
// readers spin on GoBatch while a writer forces continuous epoch
// rebuilds (tiny threshold) by re-versioning a key set that lives
// entirely on one shard. Two invariants must hold for every read batch:
//
//   - atomicity: an ApplyBatch's per-shard segment applies as one unit
//     between drains, and a drain probes exactly one (epoch snapshot,
//     delta) pair — so a batch must never observe a mix of versions,
//     whether the versions sit in the delta, the frozen delta, or a
//     freshly installed epoch;
//   - monotonicity: versions are applied in order on the one shard, so
//     a reader's observed version must never go backwards.
//
// Run under -race (the CI race job) this also exercises the epoch
// pointer hand-off between the shard and Stats readers. The large world
// runs the same churn over columns that fill huge pages, merging into
// recycled mapped spares, with fewer versions: each of its merges
// rewrites a 2^19-key column.
func TestSnapshotConsistencyUnderRebuilds(t *testing.T) {
	const shards = 4
	versions := uint32(150)
	if testing.Short() {
		versions = 60
	}
	t.Run("heap", func(t *testing.T) { testSnapshotConsistency(t, testDomain(200, 1), versions) })
	t.Run("huge", func(t *testing.T) { testSnapshotConsistency(t, bigDomain(shards), versions/6) })
}

func testSnapshotConsistency(t *testing.T, domain []uint64, versions uint32) {
	const (
		shards  = 4
		nKeys   = 24
		readers = 2
	)
	// Keys that all hash to shard 0, none in the initial domain.
	keys := make([]uint64, 0, nKeys)
	for k := uint64(1000); len(keys) < nKeys; k++ {
		if shardOf(k, shards) == 0 {
			keys = append(keys, k)
		}
	}
	s, err := New(domain, WithShards(shards), WithRebuildThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Seed version 0 so readers never see an absent key.
	ops := make([]Op, nKeys)
	for i, k := range keys {
		ops[i] = Op{Kind: OpInsert, Key: k, Val: 0}
	}
	s.ApplyBatch(ctx, ops).Wait()

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]uint64, nKeys)
			last := uint32(0)
			for !done.Load() {
				copy(buf, keys)
				bf := s.GoBatch(ctx, buf)
				res := bf.Wait()
				v := res[0].Code
				for i := range res {
					if !res[i].Found {
						errs <- "reader observed an absent key"
						return
					}
					if res[i].Code != v {
						errs <- "torn view: mixed versions inside one batch"
						return
					}
				}
				if v < last {
					errs <- "version went backwards across batches"
					return
				}
				last = v
			}
		}(r)
	}
	for v := uint32(1); v <= versions; v++ {
		for i, k := range keys {
			ops[i] = Op{Kind: OpInsert, Key: k, Val: v}
		}
		s.ApplyBatch(ctx, ops).Wait()
		if v%10 == 0 {
			time.Sleep(100 * time.Microsecond) // let readers interleave mid-epoch
		}
	}
	done.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	s.Close()
	st := s.Stats()
	if st.Rebuilds == 0 {
		t.Fatalf("writer forced no epoch rebuilds (%d writes applied)", st.Inserts)
	}
	if r := s.Stats().Shards[0]; r.Epoch == 0 {
		t.Fatal("shard 0 never advanced past epoch 0")
	}
}

// TestSubmitRacesClose is the regression test for the shutdown-race
// panic: point producers hammer Submit/Insert while the main goroutine
// Closes the service. Every submission must either be admitted (and
// complete normally) or be refused with ErrClosed and a Dropped result
// — never panic, never strand a future. Run under -race this also
// checks the batcher's closed-flag handoff.
func TestSubmitRacesClose(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		s, err := New(testDomain(100, 1), WithShards(2),
			WithAdmission(4))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		const producers = 4
		var wg sync.WaitGroup
		var admitted, refused atomic.Uint64
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				for k := uint64(0); ; k++ {
					var f *Future
					if k%3 == 0 {
						f = s.Insert(ctx, 1000+k, uint32(k+1))
					} else {
						f = s.Go(ctx, k%100)
					}
					if f.Err() == ErrClosed {
						if r := f.Wait(); !r.Dropped {
							t.Errorf("refused future completed %+v", r)
						}
						refused.Add(1)
						return
					}
					f.Wait()
					admitted.Add(1)
				}
			}(p)
		}
		close(start)
		time.Sleep(time.Duration(iter%5) * 50 * time.Microsecond)
		s.Close()
		wg.Wait()
		if refused.Load() != producers {
			t.Fatalf("iter %d: %d producers stopped on ErrClosed, want %d (admitted %d)",
				iter, refused.Load(), producers, admitted.Load())
		}
	}
}

// TestBatchAdmissionRacesClose is the vectorized/range counterpart of
// TestSubmitRacesClose: producers hammer GoBatch, JoinBatch, ApplyBatch,
// and RangeBatch while the main goroutine Closes the service. The
// admission gate must turn every loser into a clean ErrClosed refusal —
// never a send on a closed shard queue — and every winner must complete
// normally. Run under -race (the CI race job) this also checks the gate
// ordering against the queue closes and the refusal counters.
func TestBatchAdmissionRacesClose(t *testing.T) {
	domain := testDomain(100, 1)
	build := make([]BuildTuple, 0, len(domain))
	for _, v := range domain {
		build = append(build, BuildTuple{Key: v, Payload: uint32(v)})
	}
	for iter := 0; iter < 20; iter++ {
		s, err := New(domain, WithShards(2), WithBuild(build))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		const producers = 4
		var wg sync.WaitGroup
		var refused atomic.Uint64
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				for k := uint64(0); ; k++ {
					var err error
					switch p % 4 {
					case 0:
						bf := s.GoBatch(ctx, []uint64{k % 100, (k + 7) % 100, k + 1000})
						if err = bf.Err(); err == nil && len(bf.Wait()) != 3 {
							t.Error("admitted lookup batch lost results")
						}
					case 1:
						bf := s.JoinBatch(ctx, []uint64{k % 100, (k + 13) % 100})
						if err = bf.Err(); err == nil && len(bf.WaitJoin()) != 2 {
							t.Error("admitted join batch lost results")
						}
					case 2:
						bf := s.ApplyBatch(ctx, []Op{
							{Kind: OpInsert, Key: 2000 + k, Val: uint32(k + 1)},
							{Kind: OpDelete, Key: 3000 + k},
						})
						if err = bf.Err(); err == nil && len(bf.Wait()) != 2 {
							t.Error("admitted write batch lost acks")
						}
					case 3:
						rf := s.RangeBatch(ctx, []Op{RangeOp(k%100, k%100+10, 4)})
						err = rf.Err()
					}
					if err != nil {
						if err != ErrClosed {
							t.Errorf("refusal error = %v, want ErrClosed", err)
						}
						refused.Add(1)
						return
					}
				}
			}(p)
		}
		close(start)
		time.Sleep(time.Duration(iter%5) * 50 * time.Microsecond)
		s.Close()
		wg.Wait()
		if refused.Load() != producers {
			t.Fatalf("iter %d: %d producers stopped on ErrClosed, want %d",
				iter, refused.Load(), producers)
		}
		if st := s.Stats(); st.DroppedClosed == 0 || st.Dropped < st.DroppedClosed {
			t.Fatalf("iter %d: refusals not counted: %+v", iter, st)
		}
	}
}

// TestShedAccounting pins the front-end shed hook: sheds land in
// DroppedShed (and the Dropped total) without touching any shard
// counter.
func TestShedAccounting(t *testing.T) {
	s, err := New(testDomain(10, 1), WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Shed(3)
	s.Shed(0) // no-op
	s.Shed(-1)
	st := s.Stats()
	if st.DroppedShed != 3 || st.Dropped != 3 || st.DroppedCancelled != 0 {
		t.Fatalf("shed accounting: %+v", st)
	}
	s.Close()
}

// TestWriteStormNeverStalls forces the refill-while-merging pressure
// that used to park the shard — the delta crossing a tiny threshold
// many times inside one long write segment, with no idle time between
// writes — and asserts that every merge ends by its own per-write steps
// before the next freeze: WriteStalls (a freeze that had to finish the
// previous merge itself) stays zero on any core count, because the step
// arithmetic, not the scheduler, keeps the merge ahead.
//
// The large world storms a shard whose columns fill huge pages, so its
// merges write recycled mapped spares; it takes a quarter of the writes,
// since each of its merges rewrites a 2^19-key column.
func TestWriteStormNeverStalls(t *testing.T) {
	t.Run("heap", func(t *testing.T) { testWriteStorm(t, testDomain(64, 1), 400) })
	t.Run("huge", func(t *testing.T) { testWriteStorm(t, bigDomain(1), 100) })
}

func testWriteStorm(t *testing.T, domain []uint64, writes int) {
	s, err := New(domain, WithShards(1), WithRebuildThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// One big write segment applies between drains: the delta crosses
	// the tiny threshold many times while merges are still in flight —
	// the exact shape that used to take the park path on every refill.
	// Every one of those merges advances only by the writes after it.
	ops := make([]Op, writes)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Key: uint64(10000 + i), Val: uint32(i + 1)}
	}
	s.ApplyBatch(ctx, ops).Wait()
	// The writes are all visible, storm or not.
	for _, i := range []int{0, writes/2 - 1, writes - 1} {
		if r := s.Lookup(ctx, ops[i].Key); !r.Found || r.Code != ops[i].Val {
			t.Fatalf("lookup(%d) = %+v after write storm", ops[i].Key, r)
		}
	}
	s.Close()
	st := s.Stats()
	if st.Rebuilds == 0 {
		t.Fatalf("write storm forced no rebuilds: %+v", st)
	}
	if st.WriteStalls != 0 {
		t.Fatalf("write storm found an unfinished merge at %d freezes (rebuilds %d) — writes must never stall", st.WriteStalls, st.Rebuilds)
	}
	if st.WriteBusy <= 0 {
		t.Fatal("write storm recorded no write-apply time")
	}
}

// TestCloseDuringWriteStorm pins the regression where Close could race a
// write-stall park: the old freeze path parked the shard goroutine on an
// install notification that a concurrent Close could stop from ever
// coming, stranding the parked shard. Nothing parks now and a shard
// runs its merges itself — this test hammers Close against a
// full-throttle write storm (tiny threshold, merges always in flight)
// and must terminate: every submitted write either acks or drops with
// ErrClosed, never hangs. The large world runs the same storm over
// columns that fill huge pages, so Close also races merges into mapped
// spares and unmaps them after the shard goroutines exit.
func TestCloseDuringWriteStorm(t *testing.T) {
	t.Run("heap", func(t *testing.T) { testCloseDuringWriteStorm(t, testDomain(64, 1), 2, 8) })
	// Every write runs a step of a merge over the whole column: in the
	// large world a larger threshold keeps the steps, and so the queued
	// storm Close drains, short.
	t.Run("huge", func(t *testing.T) { testCloseDuringWriteStorm(t, bigDomain(2), 64, 4) })
}

func testCloseDuringWriteStorm(t *testing.T, domain []uint64, threshold, rounds int) {
	for round := 0; round < rounds; round++ {
		s, err := New(domain, WithShards(2), WithRebuildThreshold(threshold))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var wg sync.WaitGroup
		futs := make(chan *BatchFuture, 256)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(futs)
			for i := 0; ; i++ {
				ops := make([]Op, 16)
				for j := range ops {
					ops[j] = Op{Kind: OpInsert, Key: uint64(i*16 + j), Val: uint32(i + 1)}
				}
				bf := s.ApplyBatch(ctx, ops)
				futs <- bf
				if bf.Err() == ErrClosed {
					return
				}
			}
		}()
		// Let the storm get merges in flight, then yank the service.
		for spin := 0; spin < 50*(round+1); spin++ {
			runtime.Gosched()
		}
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("Close wedged against the write storm")
		}
		done := make(chan struct{})
		go func() {
			for bf := range futs {
				bf.Wait()
			}
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("write futures wedged after Close")
		}
	}
}

// TestStatsDuringWriteStorm hammers Stats from a side goroutine while
// writes force rebuilds — the epoch pointer, delta gauge, and rebuild
// counters must stay readable (and race-clean) mid-install.
func TestStatsDuringWriteStorm(t *testing.T) {
	s, err := New(testDomain(100, 1), WithShards(2), WithRebuildThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			st := s.Stats()
			for _, ss := range st.Shards {
				if ss.DeltaLen < 0 {
					panic("negative delta gauge")
				}
			}
			runtime.Gosched() // don't starve the single-core write path
		}
	}()
	for i := 0; i < 300; i++ {
		s.Insert(ctx, uint64(5000+i%60), uint32(i)).Wait()
	}
	done.Store(true)
	wg.Wait()
	s.Close()
	if st := s.Stats(); st.Rebuilds == 0 || st.MaxRebuildPause == 0 {
		t.Fatalf("write storm recorded no rebuild pauses: %+v", st)
	}
}
