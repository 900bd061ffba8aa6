// Command isiserved runs the internal/serve index-join service behind
// the internal/wire network front-end: a TCP server speaking the
// length-prefixed binary protocol that the client package binds to
// (client.Dial; examples/remoteclient is the quickstart). It accepts
// many concurrent connections and admits every request frame as one
// column — the client has already coalesced point ops into op frames —
// streams range entries and join matches back as they materialize, and
// sheds load at admission: per-tenant token-bucket quotas (-tenantrate)
// and a server-wide in-flight cap (-maxinflight) refuse whole frames
// before the shards see them.
//
// The domain holds even values only (value of code i is 2i, so odd keys
// miss), and the build side is drawn from a seeded skew, so a client
// that knows the seed can check every answer.
//
//	isiserved -listen :7070 -shards 4 -dict 64 -build 32
//	go run ./examples/remoteclient -addr localhost:7070
//
// -obs serves the shared observability HTTP endpoint (/obs, /metrics,
// /debug/pprof/*) including the wire front-end's conn/frame/byte/shed
// metrics and its accept→decode→respond span ring.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		listen   = flag.String("listen", "localhost:7070", "wire protocol listen address (port 0 picks a free port)")
		shards   = flag.Int("shards", 4, "number of index shards (one goroutine each)")
		dictMB   = flag.Int("dict", 64, "domain size in MB of 8-byte keys")
		buildMB  = flag.Int("build", 32, "join build side size in MB of 16-byte tuples (0 disables joins)")
		bZipf    = flag.Float64("buildzipf", 0, "fraction of build tuples on the Zipf hot set")
		bTheta   = flag.Float64("buildtheta", 1.1, "build-side Zipf exponent (>1)")
		group    = flag.Int("group", 6, "initial interleaving group size per shard")
		minGroup = flag.Int("mingroup", 1, "adaptive controller lower bound")
		maxGroup = flag.Int("maxgroup", 32, "adaptive controller upper bound")
		adaptive = flag.Bool("adaptive", true, "hill-climb the group size per shard")
		epoch    = flag.Int("epoch", 8, "batches per controller epoch")
		rebuild  = flag.Int("rebuild", 0, "per-shard delta size triggering a background epoch rebuild (0 = default, <0 disables)")
		seed     = flag.Uint64("seed", 7, "domain/build seed (must match the client's for differential runs)")

		inflight  = flag.Int("maxinflight", 1<<20, "server-wide cap on admitted-but-unanswered ops; beyond it frames are shed")
		trate     = flag.Float64("tenantrate", 0, "per-tenant admission quota in ops/second (0 = unlimited)")
		tburst    = flag.Float64("tenantburst", 0, "per-tenant token-bucket depth (0 = max(rate, 1024))")
		chunk     = flag.Int("chunk", 1024, "streamed match/range chunk size in records per frame")
		maxFrame  = flag.Int("maxframe", wire.DefaultMaxFrame, "maximum accepted frame length in bytes")
		obsAddr   = flag.String("obs", "", "observability HTTP address: /obs, /metrics, /debug/pprof/*")
		quietExit = flag.Duration("exitafter", 0, "exit after this duration (0 = run until SIGINT/SIGTERM); for scripted benchmark runs")
	)
	flag.Parse()

	n := int(int64(*dictMB) << 20 / 8)
	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i) * 2 // even values only: odd keys miss
	}

	scfg := serve.Config{
		Shards:           *shards,
		Group:            *group,
		MinGroup:         *minGroup,
		MaxGroup:         *maxGroup,
		Adaptive:         *adaptive,
		AdaptEvery:       *epoch,
		RebuildThreshold: *rebuild,
	}
	opts := []serve.Option{serve.WithConfig(scfg)}
	var observer *obs.Observer
	if *obsAddr != "" {
		observer = obs.New()
		opts = append(opts, serve.WithObserver(observer))
	}
	if *buildMB > 0 {
		nTuples := int(int64(*buildMB) << 20 / 16)
		idx := workload.JoinBuildIndices(*seed*31+7, n, nTuples, *bZipf, *bTheta)
		build := make([]serve.BuildTuple, nTuples)
		for i, k := range idx {
			build[i] = serve.BuildTuple{Key: uint64(k) * 2, Payload: uint32(i)}
		}
		opts = append(opts, serve.WithBuild(build))
	}
	svc, err := serve.New(values, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "isiserved:", err)
		os.Exit(1)
	}

	if *obsAddr != "" {
		bound, err := obs.ListenAndServe(*obsAddr, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "isiserved:", err)
			os.Exit(1)
		}
		fmt.Printf("observability: http://%s/obs | /metrics | /debug/pprof/\n", bound)
	}

	srv := wire.NewServer(svc, wire.Config{
		MaxFrame:    *maxFrame,
		MaxInflight: *inflight,
		TenantRate:  *trate,
		TenantBurst: *tburst,
		ChunkSize:   *chunk,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "isiserved:", err)
		os.Exit(1)
	}
	// The "listening on" banner is the readiness signal scripts wait for;
	// it carries the resolved port for :0.
	fmt.Printf("isiserved: listening on %s (shards=%d domain=%d keys, join=%v, quota=%.0f ops/s/tenant)\n",
		ln.Addr(), *shards, n, *buildMB > 0, *trate)

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	if *quietExit > 0 {
		go func() {
			time.Sleep(*quietExit)
			done <- syscall.SIGTERM
		}()
	}
	go func() {
		<-done
		fmt.Println("isiserved: shutting down")
		srv.Close() // stop accepting, drain connections
		svc.Close() // then drain the service
		os.Exit(0)
	}()
	if err := srv.Serve(ln); err != nil && err != wire.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "isiserved:", err)
		os.Exit(1)
	}
}
