package serve

// Tests of the admission rule itself — a batch seals when full, at once
// while the window has room, and behind the completion of the batch in
// flight — counted in sealed batches, never in wall time; of the order
// sealed batches reach the shards in; and of Close racing the seal a
// completion makes.

import (
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// recordingBatcher is a batcher whose flush records each sealed batch
// instead of dispatching it; nothing completes until the test says so.
func recordingBatcher(maxSize int) (*batcher, func() []*BatchFuture) {
	var mu sync.Mutex
	var batches []*BatchFuture
	b := newBatcher(maxSize, func(bf *BatchFuture) {
		mu.Lock()
		batches = append(batches, bf)
		mu.Unlock()
	})
	return b, func() []*BatchFuture {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(batches)
	}
}

// complete finishes a recorded batch as its last shard segment would.
func complete(bf *BatchFuture) {
	bf.pending.Store(1)
	bf.segDone(0)
}

func sizes(bfs []*BatchFuture) []int {
	out := make([]int, len(bfs))
	for i, bf := range bfs {
		out[i] = len(bf.futs)
	}
	return out
}

// TestBatcherSizeBound: the first op seals alone (nothing is in
// flight); while it stays unfinished, later ops seal only when a batch
// is full, and close flushes the trailing partial batch.
func TestBatcherSizeBound(t *testing.T) {
	b, got := recordingBatcher(4)
	for i := 0; i < 11; i++ {
		if f := b.add(Future{op: Op{Key: uint64(i)}}); f.bf.futs[f.i].op.Key != uint64(i) || f.Key() != uint64(i) {
			t.Fatalf("add %d: future is not its slab slot", i)
		}
	}
	if s := sizes(got()); !slices.Equal(s, []int{1, 4, 4}) {
		t.Fatalf("sealed batches of %v, want [1 4 4]", s)
	}
	b.close()
	if s := sizes(got()); !slices.Equal(s, []int{1, 4, 4, 2}) {
		t.Fatalf("after close: batches of %v, want [1 4 4 2]", s)
	}
	if b.add(Future{op: Op{Key: 99}}) != nil {
		t.Fatal("add after close was not refused")
	}
}

// TestBatcherCompletionSeals: ops queued behind an unfinished batch seal
// when it completes, as one batch; the window then stays shut behind
// that one until it completes in turn.
func TestBatcherCompletionSeals(t *testing.T) {
	b, got := recordingBatcher(1000)
	b.add(Future{op: Op{Key: 1}})
	b.add(Future{op: Op{Key: 2}})
	b.add(Future{op: Op{Key: 3}})
	first := got()
	if s := sizes(first); !slices.Equal(s, []int{1}) {
		t.Fatalf("before completion: batches of %v, want [1]", s)
	}
	complete(first[0])
	waitBatches(t, got, 2) // the completion's seal dispatches on its own goroutine
	b.add(Future{op: Op{Key: 4}})
	if s := sizes(got()); !slices.Equal(s, []int{1, 2}) {
		t.Fatalf("after one completion: batches of %v, want [1 2]", s)
	}
	complete(got()[1])
	waitBatches(t, got, 3)
	complete(got()[2])
	b.add(Future{op: Op{Key: 5}}) // nothing unfinished: seals at once
	if s := sizes(got()); !slices.Equal(s, []int{1, 2, 1, 1}) {
		t.Fatalf("batches of %v, want [1 2 1 1]", s)
	}
	b.close()
}

// TestBatcherSealsWhenWindowOpens: with two full sealed batches
// unfinished and a partial batch open, the first completion leaves one
// sealed batch unfinished — the window is still shut, so the open batch
// keeps gathering — and the second completion seals it.
func TestBatcherSealsWhenWindowOpens(t *testing.T) {
	b, got := recordingBatcher(2)
	for k := uint64(1); k <= 4; k++ {
		b.add(Future{op: Op{Key: k}})
	}
	sealed := func() uint64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.sealed
	}
	first := got()
	if s := sizes(first); !slices.Equal(s, []int{1, 2}) || sealed() != 2 {
		t.Fatalf("before completions: batches of %v (%d sealed), want [1 2] and one op open", s, sealed())
	}
	complete(first[0])
	if n := sealed(); n != 2 {
		t.Fatalf("one batch still unfinished, yet the open batch sealed (%d sealed)", n)
	}
	complete(first[1])
	if n := sealed(); n != 3 {
		t.Fatalf("after the second completion: %d sealed, want 3", n)
	}
	waitBatches(t, got, 3)
	if s := sizes(got()); !slices.Equal(s, []int{1, 2, 1}) {
		t.Fatalf("batches of %v, want [1 2 1]", s)
	}
	complete(got()[2])
	b.close()
}

// waitBatches waits for the n-th sealed batch; the deadline only turns
// a lost seal into a failure instead of a hang.
func waitBatches(t *testing.T, got func() []*BatchFuture, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(got()) < n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d batches sealed, want %d", len(got()), n)
		}
	}
}

// seals reports how many point batches s's batcher has sealed.
func seals(s *Service) uint64 {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.b.sealed
}

// TestLoneOpsFlyAlone: N sequential ops, each waited for, fly as N
// one-op batches (none waits for company), and a batch whose ops are all
// dropped still opens the window behind it.
func TestLoneOpsFlyAlone(t *testing.T) {
	s, err := New(testDomain(256, 1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	const n = 200
	for i := 0; i < n; i++ {
		if r := s.Lookup(ctx, uint64(i)); !r.Found || r.Code != uint32(i) {
			t.Fatalf("lookup(%d) = %+v", i, r)
		}
	}
	if got := seals(s); got != n {
		t.Fatalf("%d sequential lookups sealed %d batches, want %d", n, got, n)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	dropped := s.Go(cancelled, 1)
	behind := s.Go(ctx, 2)
	if r := behind.Wait(); !r.Found || r.Code != 2 || !dropped.Wait().Dropped {
		t.Fatalf("op behind a dropped batch = %+v", r)
	}
}

// TestConcurrentCallersShareBatches: synchronous callers that arrive
// while a batch is in flight gather behind it. The first caller's batch
// is held at its flush until the other 63 have queued, so the 64
// lookups seal as exactly two batches, one op and 63.
func TestConcurrentCallersShareBatches(t *testing.T) {
	s, err := New(testDomain(1<<12, 1), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate, held := make(chan struct{}), false
	dispatch := s.b.flush
	s.b.flush = func(bf *BatchFuture) { // flushes run one at a time
		if !held {
			held = true
			<-gate
		}
		dispatch(bf)
	}
	const callers = 64
	var wg sync.WaitGroup
	lookup := func(k uint64) {
		defer wg.Done()
		if r := s.Lookup(context.Background(), k); !r.Found || r.Code != uint32(k) {
			t.Errorf("lookup(%d) = %+v", k, r)
		}
	}
	until := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			s.b.mu.Lock()
			ok := cond()
			s.b.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never %s", what)
			}
		}
	}
	wg.Add(callers)
	go lookup(0)
	until("sealed the first lookup", func() bool { return s.b.sealed == 1 })
	for c := uint64(1); c < callers; c++ {
		go lookup(c)
	}
	until("queued the other lookups", func() bool { return s.b.cur != nil && len(s.b.cur.futs) == callers-1 })
	close(gate)
	wg.Wait()
	if got := seals(s); got != 2 {
		t.Fatalf("%d concurrent lookups sealed %d batches, want 2", callers, got)
	}
}

// TestPointBatchesReachShardsInSealOrder is the seal-order probe: one
// goroutine submits Insert(k), Go(k) and a pad op without waiting, with
// two-op batches on two shards, so the write and the read often sit in
// different batches sealed by different goroutines (the caller filling
// a batch, a completion sealing the next). A shard must run them in
// seal order: a read that misses the write sealed before it is a
// violation.
func TestPointBatchesReachShardsInSealOrder(t *testing.T) {
	s, err := New(testDomain(1<<10, 1), WithShards(2), WithAdmission(2), WithRebuildThreshold(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	iters := 1 << 15
	if testing.Short() {
		iters = 1 << 12
	}
	type pair struct{ ins, get *Future }
	pairs := make([]pair, 0, 256)
	violations := 0
	check := func() {
		for _, p := range pairs {
			if r := p.get.Wait(); !r.Found || r.Code != p.ins.Op().Val {
				violations++
			}
		}
		pairs = pairs[:0]
	}
	for i := 0; i < iters; i++ {
		k := uint64(1<<20 + i) // absent from the domain until inserted
		pairs = append(pairs, pair{s.Insert(ctx, k, uint32(i)), s.Go(ctx, k)})
		s.Go(ctx, uint64(i)%(1<<10))
		if len(pairs) == cap(pairs) {
			check()
		}
	}
	check()
	if violations > 0 {
		t.Fatalf("%d of %d reads missed the write sealed before them", violations, iters)
	}
}

// TestServiceCloseRacesCompletionFlush races Close against the seal a
// completion makes: an op queued behind the batch in flight is sealed
// either by that batch's completion (dispatching on its own goroutine)
// or by Close, never both and never into a closed shard queue, and it
// completes with its result. No goroutine outlives Close.
func TestServiceCloseRacesCompletionFlush(t *testing.T) {
	vals := testDomain(64, 1)
	before := runtime.NumGoroutine()
	for i := 0; i < 300; i++ {
		s, err := New(vals, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		first := s.Go(context.Background(), uint64(i%64))
		behind := s.Go(context.Background(), uint64((i+1)%64))
		s.Close()
		for j, f := range []*Future{first, behind} {
			if r, k := f.Wait(), f.Key(); !r.Found || uint64(r.Code) != k {
				t.Fatalf("iter %d: future %d resolved %+v after Close race", i, j, r)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Close, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// BenchmarkLonePoint is the in-process twin of the wire package's
// BenchmarkLoopbackPoint sync-lookup row: one caller, one synchronous
// Lookup at a time, on 2 shards over 2^16 keys (half the probes miss).
// It reports the p50 op latency, which with no clock on the request
// path is the op's own admission and drain.
func BenchmarkLonePoint(b *testing.B) {
	s, err := New(testDomain(1<<16, 2), WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 9))
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		k := rng.Uint64N(1 << 17)
		t0 := time.Now()
		s.Lookup(ctx, k)
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-us")
}
