package client

// In-package tests for the connection plumbing the e2e suite can't
// reach deterministically: the point coalescer's rule, counted in
// frames (a lone op flies alone, callers gather behind the frame in
// flight), its add-vs-completion race (the forming frame must never be
// flushed out from under a concurrent enqueue, nor sent twice), the
// window's release when a frame is never answered, and Quiesce's drain
// notification (no polling, no lost wakeup). Run with -race; the race
// assertions are completeness — every future completes exactly once
// with a coherent result.

import (
	"context"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// dialTestRemote spins up a real wire server over a small service and
// dials it with the given options. Cleanup tears down server then
// service; the caller closes the Remote.
func dialTestRemote(t *testing.T, opts ...Option) *Remote {
	t.Helper()
	const domainN = 128
	domain := make([]uint64, domainN)
	for i := range domain {
		domain[i] = uint64(i) * 2
	}
	brng := rand.New(rand.NewPCG(7, 8))
	var build []serve.BuildTuple
	for i := 0; i < 200; i++ {
		build = append(build, serve.BuildTuple{
			Key:     uint64(brng.Uint64N(domainN)) * 2,
			Payload: brng.Uint32N(1000),
		})
	}
	svc, err := serve.New(domain,
		serve.WithShards(2),
		serve.WithAdmission(8),
		serve.WithRebuildThreshold(16),
		serve.WithBuild(build),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(svc, wire.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	rm, err := Dial(ln.Addr().String(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// TestSubmitOnDeadConnection is the deterministic form of the hang
// TestServerCloseFailsClient used to hit: once a connection's read loop
// has swept its pending set and exited, nothing resolves a call
// registered afterwards — and the first write into the peer-closed
// socket still succeeds — so every submission surface must refuse with
// serve.ErrClosed on the spot, count the ops as shed, and send nothing.
func TestSubmitOnDeadConnection(t *testing.T) {
	svc, err := serve.New([]uint64{2, 4, 6}, serve.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := wire.NewServer(svc, wire.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	rm, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()
	if r := rm.Lookup(ctx, 4); !r.Found {
		t.Fatalf("warmup lookup: %+v", r)
	}
	srv.Close()
	conn := rm.conns[0]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		conn.pmu.Lock()
		dead := conn.dead
		conn.pmu.Unlock()
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client read loop still running 5s after the server closed")
		}
	}

	before := rm.Stats()
	write := []serve.Op{{Kind: serve.OpInsert, Key: 8, Val: 1}, {Kind: serve.OpDelete, Key: 2}}
	pf, rf := rm.Go(ctx, 4), rm.RangeBatch(ctx, []serve.Op{serve.RangeOp(0, 10, 0)})
	calls := map[string]interface {
		Err() error
	}{
		"GoBatch":    rm.GoBatch(ctx, []uint64{2, 4}),
		"JoinBatch":  rm.JoinBatch(ctx, []uint64{2}),
		"ApplyBatch": rm.ApplyBatch(ctx, write),
		"RangeBatch": rf,
		"Go":         pf,
	}
	for name, c := range calls {
		errc := make(chan error, 1)
		go func() { errc <- c.Err() }()
		select {
		case err := <-errc:
			if err != serve.ErrClosed {
				t.Errorf("%s on a dead connection: %v, want ErrClosed", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s on a dead connection never resolved", name)
		}
	}
	if r := pf.Wait(); !r.Dropped || !rf.Dropped() {
		t.Errorf("refused calls must read as dropped: point %+v, range dropped %v", r, rf.Dropped())
	}
	after := rm.Stats()
	if shed := after.Shed - before.Shed; shed != 7 { // 2 + 1 + 2 + 1 + 1 ops
		t.Errorf("Stats.Shed grew by %d, want 7", shed)
	}
	if after.FramesOut != before.FramesOut || after.BytesOut != before.BytesOut {
		t.Errorf("a dead connection still wrote: %d frames, %d bytes", after.FramesOut-before.FramesOut, after.BytesOut-before.BytesOut)
	}
}

// TestCoalescerAddVsCompletionRace hammers point submission from
// several goroutines while answers keep sealing the open column from
// the read loop's side mid-enqueue. Every future must complete with a
// served (non-dropped, non-shed) result: a frame stolen torn, sent
// twice, or stranded behind a window no answer reopens all fail here
// (the stranded case as a hang, bounded by the deadline below).
func TestCoalescerAddVsCompletionRace(t *testing.T) {
	rm := dialTestRemote(t, WithCoalesce(8))
	defer rm.Close()

	const (
		workers = 4
		perW    = 300
	)
	futs := make([][]*Future, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for i := 0; i < perW; i++ {
				key := rng.Uint64N(256)
				var f *Future
				switch i % 3 {
				case 0:
					f = rm.Go(context.Background(), key)
				case 1:
					f = rm.Insert(context.Background(), key, uint32(i))
				default:
					f = rm.GoJoin(context.Background(), key)
				}
				futs[w] = append(futs[w], f)
				if i%17 == 0 {
					// Let answers arrive between enqueues, so completion
					// seals interleave with fresh frames, not just full
					// flushes.
					time.Sleep(30 * time.Microsecond)
				}
			}
		}(w)
	}
	wg.Wait()

	deadline := time.After(30 * time.Second)
	for w := range futs {
		for i, f := range futs[w] {
			select {
			case <-f.c.done:
			case <-deadline:
				t.Fatalf("worker %d future %d never completed (frame stranded in coalescer)", w, i)
			}
			if err := f.Err(); err != nil {
				t.Fatalf("worker %d future %d: %v", w, i, err)
			}
			if f.Wait().Dropped {
				t.Fatalf("worker %d future %d dropped", w, i)
			}
		}
	}
	if got, want := rm.Stats().Ops, uint64(workers*perW); got != want {
		t.Fatalf("client counted %d served ops, submitted %d", got, want)
	}
}

// TestQuiesceDrainsWithoutPolling checks the notification-based
// Quiesce: idle return is immediate, a loaded Remote drains, and a
// cancelled ctx aborts the wait instead of deadlocking.
func TestQuiesceDrainsWithoutPolling(t *testing.T) {
	rm := dialTestRemote(t, WithConns(2), WithCoalesce(16))
	defer rm.Close()

	// Idle: nothing pending, nothing buffered — must not block.
	start := time.Now()
	if err := rm.Quiesce(context.Background()); err != nil {
		t.Fatalf("idle quiesce: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("idle quiesce took %v", d)
	}

	// Loaded: buffered point ops plus in-flight vector batches across
	// both connections; Quiesce must wait them all out, the ops still in
	// an open column included.
	var futs []*Future
	for i := 0; i < 40; i++ {
		futs = append(futs, rm.Insert(context.Background(), uint64(i)*2, uint32(i)))
	}
	keys := make([]uint64, 32)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	b1 := rm.GoBatch(context.Background(), keys)
	b2 := rm.JoinBatch(context.Background(), keys)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rm.Quiesce(ctx); err != nil {
		t.Fatalf("loaded quiesce: %v", err)
	}
	// Post-quiesce every future must already be complete.
	for i, f := range futs {
		select {
		case <-f.c.done:
		default:
			t.Fatalf("future %d still pending after Quiesce", i)
		}
	}
	for _, bf := range []*BatchFuture{b1, b2} {
		select {
		case <-bf.Done():
		default:
			t.Fatal("batch still pending after Quiesce")
		}
	}

	// Cancelled ctx: a Quiesce racing live traffic must return ctx.Err
	// rather than hang when the caller gives up.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				rm.Lookup(context.Background(), 4)
			}
		}
	}()
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if err := rm.Quiesce(cctx); err != context.Canceled {
		// A drained instant between frames can legitimately return nil;
		// only a wrong error is a failure.
		if err != nil {
			t.Fatalf("cancelled quiesce: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := rm.Quiesce(context.Background()); err != nil {
		t.Fatalf("final quiesce: %v", err)
	}
}

// TestQuiesceConcurrentWithCompletions stresses the drain-waiter
// bookkeeping: many Quiesce calls racing request completions must all
// return without a lost wakeup.
func TestQuiesceConcurrentWithCompletions(t *testing.T) {
	rm := dialTestRemote(t, WithCoalesce(4))
	defer rm.Close()

	var wg sync.WaitGroup
	for round := 0; round < 20; round++ {
		for i := 0; i < 8; i++ {
			rm.Go(context.Background(), uint64(i)*2)
		}
		for q := 0; q < 3; q++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := rm.Quiesce(ctx); err != nil {
					t.Errorf("quiesce: %v", err)
				}
			}()
		}
		wg.Wait()
	}
}
