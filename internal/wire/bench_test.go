package wire_test

import (
	"context"
	"math/rand/v2"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/serve"
	"repro/internal/wire"
)

// BenchmarkLoopbackLookup is the benchmark workload net_lookup's closed
// phase in one process and without its 40 s harness: 2 shards over 2^16
// keys, 2 connections, 2 closed-loop clients keeping 4 × 1024-key GoBatch
// vectors in flight each, fresh random keys (half of them misses) per
// vector. One op is one frame, so ns/op ÷ 1024 is the per-key cost of
// the whole wire path, and B/op and allocs/op are per frame, both ends.
// It takes -cpuprofile; for a paired number build both commits with
// go test -c and alternate the binaries (EXPERIMENTS.md, "The wire path
// without the maps").
func BenchmarkLoopbackLookup(b *testing.B) {
	domain := make([]uint64, 1<<16)
	for i := range domain {
		domain[i] = uint64(i) * 2
	}
	cfg := serve.DefaultConfig()
	cfg.Shards = 2
	svc, err := serve.New(domain, serve.WithConfig(cfg))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	rm, err := client.Dial(startServer(b, svc, wire.Config{}), client.WithConns(2))
	if err != nil {
		b.Fatal(err)
	}
	defer rm.Close()
	const clients, window, vec = 2, 4, 1024
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 5))
			bufs := make([][]uint64, window)
			futs := make([]*client.BatchFuture, window)
			for i := range bufs {
				bufs[i] = make([]uint64, vec)
			}
			for i := 0; i < b.N/clients; i++ {
				w := i % window
				if futs[w] != nil {
					futs[w].Wait()
				}
				for j := range bufs[w] {
					bufs[w][j] = rng.Uint64N(1 << 17)
				}
				futs[w] = rm.GoBatch(context.Background(), bufs[w])
			}
			for _, f := range futs {
				if f != nil {
					f.Wait()
				}
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkLoopbackPoint drives remote point ops over loopback in one
// process — the traffic the client's coalescer packs into op frames —
// against 2 shards over 2^16 keys with a 2^16-tuple build side. b.N is
// the ops over all callers:
//
//   - sync-lookup: one caller, one synchronous Lookup at a time;
//   - workers64-conns2: 64 callers of synchronous Lookups sharing one
//     Remote of 2 connections;
//   - thin256: 256 callers, each with a Remote of its own (one
//     connection, 1-op frames);
//   - sync-join: one caller, one synchronous GoJoin at a time.
//
// It reports kops/s, process CPU per op (client and server together),
// the p50 op latency, and the bytes each op costs on the wire in both
// directions. For a paired number build both commits with go test -c
// and alternate the binaries.
func BenchmarkLoopbackPoint(b *testing.B) {
	domain := make([]uint64, 1<<16)
	for i := range domain {
		domain[i] = uint64(i) * 2
	}
	brng := rand.New(rand.NewPCG(3, 4))
	build := make([]serve.BuildTuple, 1<<16)
	for i := range build {
		build[i] = serve.BuildTuple{Key: brng.Uint64N(1<<16) * 2, Payload: uint32(i)}
	}
	cfg := serve.DefaultConfig()
	cfg.Shards = 2
	svc, err := serve.New(domain, serve.WithConfig(cfg), serve.WithBuild(build))
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	addr := startServer(b, svc, wire.Config{})
	cases := []struct {
		name           string
		remotes, conns int
		workers        int
		join           bool
	}{
		{name: "sync-lookup", remotes: 1, conns: 1, workers: 1},
		{name: "workers64-conns2", remotes: 1, conns: 2, workers: 64},
		{name: "thin256", remotes: 256, conns: 1, workers: 256},
		{name: "sync-join", remotes: 1, conns: 1, workers: 1, join: true},
	}
	for _, cs := range cases {
		b.Run(cs.name, func(b *testing.B) {
			rms := make([]*client.Remote, cs.remotes)
			for i := range rms {
				opts := []client.Option{client.WithConns(cs.conns)}
				if cs.remotes > 1 {
					opts = append(opts, client.WithCoalesce(1))
				}
				if rms[i], err = client.Dial(addr, opts...); err != nil {
					b.Fatal(err)
				}
				defer rms[i].Close()
			}
			lat := make([][]time.Duration, cs.workers)
			var st0 []client.Stats
			for _, rm := range rms {
				st0 = append(st0, rm.Stats())
			}
			cpu0 := cpuTime(b)
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for w := range cs.workers {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rm := rms[w%len(rms)]
					rng := rand.New(rand.NewPCG(uint64(w), 9))
					n := b.N / cs.workers
					if w < b.N%cs.workers {
						n++
					}
					lat[w] = make([]time.Duration, 0, n)
					for range n {
						k := rng.Uint64N(1 << 17)
						t0 := time.Now()
						if cs.join {
							rm.GoJoin(context.Background(), k).WaitJoin()
						} else {
							rm.Lookup(context.Background(), k)
						}
						lat[w] = append(lat[w], time.Since(t0))
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			cpu := cpuTime(b) - cpu0
			var in, out uint64
			for i, rm := range rms {
				st := rm.Stats()
				in += st.BytesIn - st0[i].BytesIn
				out += st.BytesOut - st0[i].BytesOut
			}
			all := slices.Concat(lat...)
			slices.Sort(all)
			n := float64(b.N)
			b.ReportMetric(n/elapsed.Seconds()/1e3, "kops/s")
			b.ReportMetric(float64(cpu.Nanoseconds())/n, "cpu-ns/op")
			b.ReportMetric(float64(all[len(all)/2].Nanoseconds())/1e3, "p50-us")
			b.ReportMetric(float64(in)/n, "B-in/op")
			b.ReportMetric(float64(out)/n, "B-out/op")
		})
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
