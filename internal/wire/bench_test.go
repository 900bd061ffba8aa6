package wire_test

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"

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
