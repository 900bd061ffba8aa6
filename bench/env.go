package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/client"
	"repro/internal/serve"
	"repro/internal/wire"
)

// This file builds and tears down the system under test through its public
// constructors only: serve.New, and for net_lookup wire.NewServer on a
// loopback listener plus client.Dial, all in this process.

// sizing is clients = shards = conns: one load generator per shard, capped
// at four, so that no shard shares a core with another on the hosts the
// benchmark is meant for.
func sizing() int { return min(runtime.NumCPU(), 4) }

// inputs are a workload's seeded inputs, generated once per run and outside
// every timed region.
type inputs struct {
	values []uint64
	build  []serve.BuildTuple // join_probe only
	expect []joinExpect       // join_probe only
	took   time.Duration
}

func makeInputs(sp spec, seed uint64) inputs {
	t0 := time.Now()
	in := inputs{values: domainValues(1 << sp.dictLog2)}
	if sp.kind == kindJoin {
		in.build, in.expect = joinBuild(streamSeed(seed, sp.name, -1), 1<<sp.dictLog2, 1<<sp.buildLog2)
	}
	in.took = time.Since(t0)
	return in
}

// env is one built system under test.
type env struct {
	svc    *serve.Service
	srv    *wire.Server
	served chan error
	rem    *client.Remote
}

// build constructs the service — serve.DefaultConfig with only Shards
// overridden, adaptive group controller on, as shipped — and for a net
// workload the server and the dialled client. It returns when the first
// request can be sent; its duration is setup_s.
func build(sp spec, in inputs, shards int) (*env, error) {
	cfg := serve.DefaultConfig()
	cfg.Shards = shards
	opts := []serve.Option{serve.WithConfig(cfg)}
	if sp.kind == kindJoin {
		opts = append(opts, serve.WithBuild(in.build))
	}
	svc, err := serve.New(in.values, opts...)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	e := &env{svc: svc}
	if !sp.net {
		return e, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.srv = wire.NewServer(svc, wire.Config{})
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.rem, err = client.Dial(ln.Addr().String(), client.WithConns(shards))
	if err != nil {
		e.close()
		return nil, fmt.Errorf("client.Dial: %w", err)
	}
	return e, nil
}

// close stops the client, the server and its accept loop, and the service,
// and waits for each.
func (e *env) close() {
	if e.rem != nil {
		_ = e.rem.Close() // only the connections' close errors; nothing is in flight
	}
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
	e.svc.Close()
}

// drivers returns one request driver per client, each with its own
// generator stream; instance numbers the services one run builds in turn, so
// that none replays another's keys.
func (e *env) drivers(sp spec, in inputs, seed uint64, clients, instance int) []driver {
	ctx := context.Background()
	out := make([]driver, clients)
	for c := range out {
		r := rng{s: streamSeed(seed, sp.name, instance*clients+c)}
		switch {
		case sp.kind == kindMixed:
			out[c] = &txnDriver{r: r, st: newStripe(c, clients, 1<<sp.dictLog2), svc: e.svc, ctx: ctx}
		case sp.kind == kindJoin:
			out[c] = &vecDriver{r: r, domain: 1 << sp.dictLog2, expect: in.expect,
				send: func(k []uint64) batchFuture { return e.svc.JoinBatch(ctx, k) }}
		case sp.net:
			out[c] = &vecDriver{r: r, domain: 1 << sp.dictLog2,
				send: func(k []uint64) batchFuture { return e.rem.GoBatch(ctx, k) }}
		default:
			out[c] = &vecDriver{r: r, domain: 1 << sp.dictLog2,
				send: func(k []uint64) batchFuture { return e.svc.GoBatch(ctx, k) }}
		}
	}
	return out
}

// checkHost refuses a run whose Go scheduler would time-slice more threads
// than the host has CPUs: its latencies would measure the scheduler.
func checkHost() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS %d exceeds the host's %d CPUs", p, n)
	}
	return nil
}
