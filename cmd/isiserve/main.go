// Command isiserve runs the sharded, batch-admission index-join service
// of internal/serve under a built-in concurrent load generator and
// reports per-shard throughput, p50/p99 request latency by op class,
// dropped request counts, and the adaptive group-size controller's
// trajectory.
//
// Workloads are named scenarios from the internal/workload registry
// (YCSB-style: analogues of core workloads A–F plus the repo-native
// join-heavy and range-wide mixes):
//
//	isiserve -scenario ycsb-a            # update-heavy 50/50, zipfian
//	isiserve -scenario ycsb-e            # 95% short scans / 5% inserts
//	isiserve -scenario join-heavy        # vectorized join probes
//	isiserve -scenario ycsb-b:dist=hotspot,hotset=0.1,hotopn=0.9
//	isiserve -scenario ycsb-c:rate=500000   # closed-loop at 500k ops/s
//	isiserve -listscenarios              # what is registered
//
// A scenario names an operation mix (reads, inserts, deletes,
// read-modify-write pairs, range scans, join probes) and a key
// distribution (zipfian, uniform, hotspot, latest, exponential);
// overrides ride after a colon as key=val pairs. Single-kind scenarios
// (pure lookup/join/range) admit vectorized columns via
// GoBatch/JoinBatch/RangeBatch at the scenario's vector width; mixed
// streams run point admission. A scenario rate > 0 paces workers
// closed-loop against a shared token bucket (workload.Throttle) — the
// latency-under-load operating mode.
//
// The domain holds even values only (value of code i is 2i), so miss
// fractions generate verifiably absent (odd) keys.
//
// The pre-registry flags are kept as aliases: -mode lookup|join|range
// with -writes/-zipf/-width and friends assemble an ad-hoc scenario
// through the same engine (with the historical open-loop
// exponential-gap pacing for -rate). -smoke pins the canonical
// CI sizing — with -scenario it sizes that scenario's committed
// BENCH_serve_*.json trajectory; alone it is shorthand for
// "-scenario smoke" (the read-only lookup scenario behind
// BENCH_serve.json).
//
// -json writes the structured isiserve-report/v2 run report: full
// config, host calibration, per-op quantiles, a per-op latency time
// series sampled every -tsinterval, per-shard stats, and the
// host-normalized score CI gates with cmd/benchcmp.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "named workload scenario, optionally with overrides: name[:key=val,...] (see -listscenarios); replaces the -mode flag family")
		list     = flag.Bool("listscenarios", false, "list registered scenarios and aliases, then exit")
		shards   = flag.Int("shards", 4, "number of index shards (one goroutine each)")
		mode     = flag.String("mode", "lookup", "legacy request type: lookup, join, or range — assembles an ad-hoc scenario; ignored when -scenario is set")
		width    = flag.Int("width", 16, "mean domain entries per range (1 = seek-only; large = scan-dominated)")
		rngLimit = flag.Int("rangelimit", 0, "per-range result cap (0 = unbounded)")
		vector   = flag.Int("vector", 0, "vectorized admission: submit whole N-key columns via GoBatch/JoinBatch instead of per-key point ops (0 = point mode); single-kind scenarios only")
		deadline = flag.Duration("deadline", 0, "vector mode: per-batch context deadline; expired batches are dropped before drain (0 = none)")
		buildMB  = flag.Int("build", 256, "join scenarios: build-side size in MB of 16-byte tuples")
		bZipf    = flag.Float64("buildzipf", 0, "join scenarios: fraction of build tuples on the Zipf hot set (chain-length skew; 0 = uniform multiplicities)")
		bTheta   = flag.Float64("buildtheta", 1.1, "join scenarios: build-side Zipf exponent (>1)")
		dictMB   = flag.Int("dict", 64, "domain size in MB of 8-byte keys")
		duration = flag.Duration("duration", 2*time.Second, "load-generation window")
		rate     = flag.Float64("rate", 200000, "target ops/second: token-paced closed loop for scenarios, exponential-gap open loop for legacy -mode runs (0 = unpaced)")
		workers  = flag.Int("workers", 8, "load-generator goroutines")
		batch    = flag.Int("batch", 256, "point-mode admission batch size bound")
		wait     = flag.Duration("wait", 200*time.Microsecond, "point-mode admission batch time bound")
		group    = flag.Int("group", 6, "initial interleaving group size per shard")
		minGroup = flag.Int("mingroup", 1, "adaptive controller lower bound")
		maxGroup = flag.Int("maxgroup", 32, "adaptive controller upper bound")
		adaptive = flag.Bool("adaptive", true, "hill-climb the group size per shard")
		epoch    = flag.Int("epoch", 8, "batches per controller epoch")
		zipfFrac = flag.Float64("zipf", 0.5, "fraction of keys drawn from the Zipf hot set")
		zipfS    = flag.Float64("theta", 1.2, "Zipf exponent (>1)")
		miss     = flag.Float64("miss", 0.1, "fraction of reads probing verifiably absent keys")
		writes   = flag.Float64("writes", 0, "legacy: fraction of point-mode requests that are dictionary writes (0 = read-only)")
		deletes  = flag.Float64("deletes", 0.25, "legacy: fraction of writes that are deletes (rest are inserts)")
		freshIns = flag.Float64("fresh", 0.5, "fraction of inserts targeting fresh keys above the domain")
		rebuild  = flag.Int("rebuild", 0, "per-shard delta size triggering a background epoch rebuild (0 = default 4096, <0 disables)")
		seed     = flag.Uint64("seed", 7, "workload seed")
		jsonOut  = flag.String("json", "", "write a structured JSON run report to this path ('-' = stdout) — the BENCH_*.json trajectory writer")
		tsEvery  = flag.Duration("tsinterval", 100*time.Millisecond, "per-op latency time-series sampling interval for the -json report (0 = no time series)")
		smoke    = flag.Bool("smoke", false, "pin the canonical CI sizing (shards/domain/workers/duration/seed) so the report compares against the scenario's committed BENCH_serve*.json baseline; alone it implies -scenario smoke")
		obsAddr  = flag.String("obs", "", "serve observability HTTP on this address (e.g. localhost:6060): /obs (full snapshot), /metrics (registry), /debug/pprof/* (profiles carrying shard/op labels)")
		remote   = flag.String("remote", "", "drive a cmd/isiserved server at this address over the wire protocol instead of an in-process service; -dict/-seed must match the server's")
		conns    = flag.Int("conns", 64, "remote mode: connections the client multiplexes over")
		tenant   = flag.String("tenant", "default", "remote mode: tenant identity for the server's quota/shed accounting")
	)
	flag.Parse()

	if *list {
		for _, n := range workload.Names() {
			s, _ := workload.Get(n)
			fmt.Printf("%-12s %s\n", n, s.Describe())
		}
		fmt.Printf("aliases:     %s\n", strings.Join(workload.Aliases(), " "))
		return
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *smoke {
		// The smoke preset pins everything that sizes the run: a committed
		// baseline and a CI candidate must measure the same experiment for
		// the regression gate to mean anything. The scenario supplies the
		// mix and distribution; observation is attached (below), so smoke
		// scores also guard the observation-on hot path.
		*shards, *dictMB, *buildMB = 4, 8, 32
		*workers = 4
		*duration = time.Second
		*adaptive, *group = false, 6
		*deadline, *rebuild = 0, 0
		*seed = 7
		if *remote != "" {
			// The committed remote baseline (BENCH_serve_net.json) measures a
			// 64-connection closed loop; pin the fan-out like the other sizing.
			*workers, *conns = 64, 64
		}
		if *scenario == "" {
			*scenario = "smoke"
		}
		// Sizing pins beat any explicit flag except the scenario itself.
		for _, f := range []string{"shards", "dict", "build", "workers",
			"duration", "adaptive", "group", "deadline", "rebuild", "seed", "rate"} {
			delete(explicit, f)
		}
	}

	// Resolve the workload: a registered scenario (possibly with
	// overrides), or the legacy -mode flag family assembled into an
	// ad-hoc scenario running through the same engine.
	var (
		scn     workload.Scenario
		cfg     workload.ScenarioConfig
		scnName string // "" = ad-hoc legacy flags
		err     error
	)
	if *scenario != "" {
		scn, cfg, err = workload.ParseScenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "isiserve:", err)
			os.Exit(2)
		}
		scnName = scn.Name()
		// The pre-registry flags act as aliases for scenario overrides —
		// but only when given explicitly, so scenario defaults survive.
		if explicit["zipf"] {
			cfg.ZipfFrac = *zipfFrac
		}
		if explicit["theta"] {
			cfg.Theta = *zipfS
		}
		if explicit["miss"] {
			cfg.MissFrac = *miss
		}
		if explicit["width"] {
			cfg.MeanWidth = *width
		}
		if explicit["vector"] {
			cfg.Vector = *vector
		}
		if explicit["fresh"] {
			cfg.FreshFrac = *freshIns
		}
		if explicit["rate"] {
			cfg.Rate = *rate
		}
		if explicit["writes"] || explicit["deletes"] {
			cfg.InsertFrac = *writes * (1 - *deletes)
			cfg.DeleteFrac = *writes * *deletes
		}
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "isiserve:", err)
			os.Exit(2)
		}
	} else {
		cfg, err = legacyConfig(*mode, *writes, *deletes, *freshIns, *zipfFrac, *zipfS, *miss, *width, *vector, *rate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "isiserve:", err)
			os.Exit(2)
		}
		scn = workload.AdHoc("legacy-"+*mode, cfg)
	}

	n := int(int64(*dictMB) << 20 / 8)
	cfg.Domain, cfg.Workers, cfg.Seed = n, *workers, *seed
	setup := scn.Setup(cfg)
	if cfg.Mixed() && cfg.Vector > 0 {
		fmt.Fprintln(os.Stderr, "isiserve: mixed op streams run point admission (drop -vector)")
		os.Exit(2)
	}
	if cfg.RangeFrac == 1 && cfg.Vector <= 0 {
		// Range admission is always vectorized for pure-range streams: a
		// shard interleaves the seeks *within* one RangeBatch column, so
		// single-range submissions would drain group-of-1 no matter the
		// controller setting and the group sweep would be meaningless.
		cfg.Vector = 256
	}
	if *deadline > 0 && cfg.Vector <= 0 {
		fmt.Fprintln(os.Stderr, "isiserve: -deadline requires vectorized admission")
		os.Exit(2)
	}

	if *remote != "" {
		// Remote mode: the same resolved scenario drives an isiserved
		// process over the wire protocol. No local service is built — the
		// -dict/-seed flags only size the generated key stream, which must
		// match the server's domain.
		os.Exit(runRemote(remoteParams{
			addr: *remote, tenant: *tenant, conns: *conns,
			scn: scn, cfg: cfg, scnName: scnName, domainKeys: n,
			deadline: *deadline, rangeLimit: *rngLimit,
			workers: *workers, duration: *duration, seed: *seed,
			jsonOut: *jsonOut,
		}))
	}

	values := make([]uint64, n)
	for i := range values {
		values[i] = uint64(i) * 2 // even values only: odd keys miss
	}

	scfg := serve.Config{
		Shards:           *shards,
		MaxBatch:         *batch,
		MaxWait:          *wait,
		Group:            *group,
		MinGroup:         *minGroup,
		MaxGroup:         *maxGroup,
		Adaptive:         *adaptive,
		AdaptEvery:       *epoch,
		RebuildThreshold: *rebuild,
	}

	runMode := modeOf(cfg)
	admission := "point"
	if cfg.Vector > 0 {
		admission = fmt.Sprintf("vector/%d", cfg.Vector)
	}
	scnLabel := scnName
	if scnLabel == "" {
		scnLabel = "(legacy flags)"
	}
	fmt.Printf("isiserve: scenario=%s mode=%s admission=%s shards=%d domain=%d keys (%d MB) batch=%d/%v group=%d adaptive=%v pacing=%s\n",
		scnLabel, runMode, admission, *shards, n, *dictMB, *batch, *wait, *group, *adaptive, pacingOf(cfg, scnName != ""))

	opts := []serve.Option{serve.WithConfig(scfg)}
	var observer *obs.Observer
	if *obsAddr != "" || *smoke {
		observer = obs.New()
		opts = append(opts, serve.WithObserver(observer))
	}
	if *obsAddr != "" {
		bound, err := serveObs(*obsAddr, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "isiserve:", err)
			os.Exit(1)
		}
		fmt.Printf("observability: http://%s/obs | /metrics | /debug/pprof/\n", bound)
	}
	if setup.NeedsBuild {
		nTuples := int(int64(*buildMB) << 20 / 16)
		idx := workload.JoinBuildIndices(*seed*31+7, n, nTuples, *bZipf, *bTheta)
		build := make([]serve.BuildTuple, nTuples)
		for i, k := range idx {
			build[i] = serve.BuildTuple{Key: uint64(k) * 2, Payload: uint32(i)}
		}
		fmt.Printf("build side: %d tuples (%d MB), zipf %.2f/%.2f over the domain\n",
			nTuples, *buildMB, *bZipf, *bTheta)
		opts = append(opts, serve.WithBuild(build))
	}
	svc, err := serve.New(values, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "isiserve:", err)
		os.Exit(1)
	}

	// Pacing: scenarios run closed-loop (shared token bucket, workers
	// blocked until tokens and completion); the legacy flag family keeps
	// its historical open-loop exponential-gap arrivals.
	gen := workload.OpenLoop{Workers: *workers, Duration: *duration, Seed: *seed}
	if cfg.Rate > 0 {
		if scnName != "" {
			b := cfg.Vector
			if b < 1 {
				b = 1
			}
			gen.Throttle = workload.NewThrottle(cfg.Rate, 2**workers*b)
		} else {
			gen.Rate = cfg.Rate
		}
	}

	sampler := startSampler(svc, *tsEvery)
	ctx := context.Background()
	start := time.Now()
	var counts opCounts
	submitted := runLoad(ctx, svc, scn, cfg, gen, *deadline, *rngLimit, &counts)
	genElapsed := time.Since(start)
	svc.Close() // drains every submitted request
	elapsed := time.Since(start)
	series := sampler.stop()

	st := svc.Stats()
	// st.Items counts per-shard work: a range query fans out into one
	// segment per shard, so both the expected-drain check and the
	// per-request rate weight ranges by the shard count.
	expected := counts.read.Load() + counts.insert.Load() + counts.del.Load() +
		counts.join.Load() + counts.rng.Load()*uint64(*shards)
	drainedReqs := float64(st.Items)
	if r := counts.rng.Load(); r > 0 {
		drainedReqs -= float64(r*uint64(*shards)) - float64(r) // count each range once
	}
	fmt.Printf("submitted %d requests in %v; all drained after %v (%.0f req/s end-to-end)\n",
		submitted, genElapsed.Round(time.Millisecond), elapsed.Round(time.Millisecond),
		drainedReqs/elapsed.Seconds())
	if st.Dropped > 0 {
		fmt.Printf("dropped before drain (context deadline/cancel): %d of %d (%.2f%%)\n",
			st.Dropped, expected, 100*float64(st.Dropped)/float64(expected))
	}
	if expected != st.Items+st.Dropped {
		fmt.Fprintf(os.Stderr, "isiserve: BUG: expected %d drained but got %d + dropped %d\n",
			expected, st.Items, st.Dropped)
		os.Exit(1)
	}

	printShardTable(st, setup.NeedsBuild)

	if r := counts.rng.Load(); r > 0 {
		fmt.Printf("ranges: %d queries fanned into %d shard segments, %d merged entries (%.1f entries/query)\n",
			r, st.Ranges, st.RangeEntries, float64(st.RangeEntries)/float64(max(r, 1)))
	}
	if st.Inserts+st.Deletes > 0 {
		fmt.Printf("\nwrites: %d inserts, %d deletes applied; epoch rebuilds per shard:\n",
			st.Inserts, st.Deletes)
		fmt.Printf("%-6s %8s %9s %8s %12s %12s\n",
			"shard", "epoch", "rebuilds", "delta", "pause-total", "pause-max")
		for _, ss := range st.Shards {
			fmt.Printf("%-6d %8d %9d %8d %12v %12v\n",
				ss.Shard, ss.Epoch, ss.Rebuilds, ss.DeltaLen,
				ss.RebuildPause.Round(time.Microsecond), ss.MaxRebuildPause.Round(time.Microsecond))
		}
		fmt.Printf("total: %d rebuilds, pause total %v, worst single pause %v\n",
			st.Rebuilds, st.RebuildPause.Round(time.Microsecond), st.MaxRebuildPause.Round(time.Microsecond))
	}

	if *adaptive {
		fmt.Println("\nadaptive group trajectory (per shard, one entry per epoch):")
		for _, ss := range st.Shards {
			fmt.Printf("  shard %d: %s\n", ss.Shard, groupTrail(ss.GroupHistory))
		}
	}

	if *jsonOut != "" {
		calNS := calibrate()
		rcfg := RunConfig{
			Scenario: scnName, Mode: runMode, Index: indexNative, Shards: *shards, DomainKeys: n,
			Vector: cfg.Vector, Batch: *batch,
			Group: *group, MinGroup: *minGroup, MaxGroup: *maxGroup, Adaptive: *adaptive,
			Workers: *workers, RateRPS: cfg.Rate, Pacing: pacingOf(cfg, scnName != ""),
			DurationMS: duration.Milliseconds(),
			Dist:       cfg.Dist, ZipfFrac: cfg.ZipfFrac, ZipfTheta: cfg.Theta,
			HotSet: cfg.HotSet, HotOpn: cfg.HotOpn, ExpFrac: cfg.ExpFrac, ExpPct: cfg.ExpPct,
			MissFrac: cfg.MissFrac, InsertFrac: cfg.InsertFrac, DeleteFrac: cfg.DeleteFrac,
			RMWFrac: cfg.RMWFrac, RangeFrac: cfg.RangeFrac, JoinFrac: cfg.JoinFrac,
			FreshFrac: cfg.FreshFrac,
			Writes:    cfg.InsertFrac + cfg.DeleteFrac + cfg.RMWFrac,
			Width:     0, Seed: *seed,
		}
		if cfg.RangeFrac > 0 {
			rcfg.Width = cfg.MeanWidth
		}
		rep := buildReport(rcfg, st, submitted, genElapsed, elapsed, calNS)
		rep.Results.Series = series
		if err := writeReport(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "isiserve: report:", err)
			os.Exit(1)
		}
		if *jsonOut != "-" {
			fmt.Printf("\nreport: %s (throughput %.0f req/s, calibration %.2f ns, score %.1f)\n",
				*jsonOut, rep.Results.ThroughputRPS, calNS, rep.Results.Score)
		}
	}
}

// legacyConfig assembles the pre-registry -mode flag family into an
// ad-hoc scenario config, preserving the historical validations.
func legacyConfig(mode string, writes, deletes, fresh, zipfFrac, theta, miss float64, width, vector int, rate float64) (workload.ScenarioConfig, error) {
	cfg := workload.ScenarioConfig{
		Dist: "zipfian", ZipfFrac: zipfFrac, Theta: theta,
		HotSet: 0.2, HotOpn: 0.8, ExpFrac: 0.2, ExpPct: 0.95,
		MissFrac: miss, MeanWidth: width, Vector: vector, Rate: rate,
	}
	switch mode {
	case "lookup":
		if writes > 0 {
			if vector > 0 {
				return cfg, fmt.Errorf("-writes is a point-mode feature (drop -vector)")
			}
			cfg.InsertFrac = writes * (1 - deletes)
			cfg.DeleteFrac = writes * deletes
			cfg.FreshFrac = fresh
		}
	case "join":
		cfg.JoinFrac = 1
		if writes > 0 {
			return cfg, fmt.Errorf("-mode join drives its own request stream (drop -writes)")
		}
	case "range":
		cfg.RangeFrac = 1
		cfg.MissFrac = 0
		if writes > 0 {
			return cfg, fmt.Errorf("-mode range drives its own request stream (drop -writes)")
		}
		if width < 1 || width > 1<<14 {
			return cfg, fmt.Errorf("-width must be in [1, 16384]")
		}
	default:
		return cfg, fmt.Errorf("unknown -mode %q (lookup|join|range)", mode)
	}
	return cfg, cfg.Validate()
}

// modeOf names the run's dominant shape for reports and banners.
func modeOf(cfg workload.ScenarioConfig) string {
	switch {
	case cfg.JoinFrac == 1:
		return "join"
	case cfg.RangeFrac == 1:
		return "range"
	case cfg.Mixed():
		return "mixed"
	}
	return "lookup"
}

// pacingOf names the pacing regime: closed (token bucket) for scenario
// runs with a rate, open (exponential-gap arrivals) for legacy runs
// with a rate, none when unpaced.
func pacingOf(cfg workload.ScenarioConfig, scenarioRun bool) string {
	if cfg.Rate <= 0 {
		return "none"
	}
	if scenarioRun {
		return "closed"
	}
	return "open"
}

// opCounts tallies submissions by kind: the expected-drain check weighs
// ranges by the shard fan-out, so the driver must know how many of each
// it offered. Atomics — submit closures run on every worker.
type opCounts struct {
	read, insert, del, rng, join atomic.Uint64
}

// runLoad drives the generator against the service and returns the
// total submitted requests. Single-kind streams use vectorized column
// admission when the config carries a vector width; everything else
// submits point ops.
func runLoad(ctx context.Context, svc *serve.Service, scn workload.Scenario,
	cfg workload.ScenarioConfig, gen workload.OpenLoop,
	deadline time.Duration, rangeLimit int, counts *opCounts) int {

	streams := scn.Streams(cfg)
	// batchCtx arms the per-batch deadline for vectorized admission.
	batchCtx := func() (context.Context, context.CancelFunc) {
		if deadline > 0 {
			return context.WithTimeout(ctx, deadline)
		}
		return ctx, nil
	}
	// keySource adapts a request stream to the key-encoded generator
	// shape: even in-domain keys, odd = verifiably absent.
	keySource := func(w int) func() uint64 {
		st := streams(w)
		return func() uint64 {
			r := st.Next()
			key := uint64(r.Index) * 2
			if r.Miss {
				key++
			}
			return key
		}
	}

	switch {
	case cfg.RangeFrac == 1:
		// Pure ranges: workers fill a vector-sized column of encoded
		// (start, width) pairs — width rides in the top 16 bits, domains
		// sit far below 2^48 entries — and submit it whole, so the shards
		// interleave the seeks at their controller's group size.
		const widthShift = 48
		src := func(w int) func() uint64 {
			st := streams(w)
			return func() uint64 {
				r := st.Next()
				return uint64(r.Index)*2 | uint64(r.Width)<<widthShift
			}
		}
		n := gen.RunBatches(cfg.Vector, src, func(encs []uint64) {
			col := make([]serve.Op, len(encs))
			for i, enc := range encs {
				lo := enc & (1<<widthShift - 1)
				wd := enc >> widthShift
				hi := lo
				if wd > 0 {
					hi = lo + (wd-1)*2 // cover wd domain entries (even keys)
				}
				col[i] = serve.RangeOp(lo, hi, rangeLimit)
			}
			bctx, cancel := batchCtx()
			svc.RangeBatch(bctx, col).Wait()
			if cancel != nil {
				cancel()
			}
		})
		counts.rng.Add(uint64(n))
		return n

	case cfg.JoinFrac == 1 && cfg.Vector > 0:
		n := gen.RunBatches(cfg.Vector, keySource, func(keys []uint64) {
			bctx, cancel := batchCtx()
			svc.JoinBatch(bctx, keys).Wait()
			if cancel != nil {
				cancel()
			}
		})
		counts.join.Add(uint64(n))
		return n

	case !cfg.Mixed() && cfg.JoinFrac == 0 && cfg.Vector > 0:
		// Pure point lookups, vectorized: the worker's buffer is
		// partitioned in place by the service, so each submit waits for
		// its batch before the buffer is refilled.
		n := gen.RunBatches(cfg.Vector, keySource, func(keys []uint64) {
			bctx, cancel := batchCtx()
			svc.GoBatch(bctx, keys).Wait()
			if cancel != nil {
				cancel()
			}
		})
		counts.read.Add(uint64(n))
		return n
	}

	// Point admission: one typed request per arrival — the only path
	// that can interleave op kinds (and the historical point mode when
	// vector is 0).
	return gen.RunOps(streams, func(r workload.Req) {
		switch r.Kind {
		case workload.ReqInsert:
			counts.insert.Add(1)
			svc.Insert(ctx, uint64(r.Index)*2, r.Val)
		case workload.ReqDelete:
			counts.del.Add(1)
			svc.Delete(ctx, uint64(r.Index)*2)
		case workload.ReqRange:
			counts.rng.Add(1)
			lo := uint64(r.Index) * 2
			hi := lo
			if r.Width > 0 {
				hi = lo + uint64(r.Width-1)*2
			}
			svc.Range(ctx, lo, hi, rangeLimit)
		case workload.ReqJoin:
			counts.join.Add(1)
			key := uint64(r.Index) * 2
			if r.Miss {
				key++
			}
			svc.GoJoin(ctx, key)
		default:
			counts.read.Add(1)
			key := uint64(r.Index) * 2
			if r.Miss {
				key++
			}
			svc.Go(ctx, key)
		}
	})
}

// printShardTable renders the per-shard drain statistics.
func printShardTable(st serve.Stats, join bool) {
	if join {
		fmt.Printf("\n%-6s %10s %8s %9s %6s %12s %12s %8s %10s %10s\n",
			"shard", "probes", "batches", "avg-batch", "group", "probe-rate/s", "hits", "dropped", "p50", "p99")
		for _, ss := range st.Shards {
			fmt.Printf("%-6d %10d %8d %9.1f %6d %12.0f %12d %8d %10v %10v\n",
				ss.Shard, ss.Items, ss.Batches, ss.AvgBatch, ss.Group, ss.Throughput,
				ss.JoinHits, ss.Dropped, ss.P50.Round(time.Microsecond), ss.P99.Round(time.Microsecond))
		}
		fmt.Printf("\ntotal: %d probes, %d build matches (%.2f hits/probe), %d dropped, p50 %v, p99 %v\n",
			st.Joins, st.JoinHits, float64(st.JoinHits)/float64(max(st.Joins, 1)),
			st.Dropped, st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond))
		return
	}
	fmt.Printf("\n%-6s %10s %8s %9s %6s %12s %8s %10s %10s\n",
		"shard", "items", "batches", "avg-batch", "group", "drain-rate/s", "dropped", "p50", "p99")
	for _, ss := range st.Shards {
		fmt.Printf("%-6d %10d %8d %9.1f %6d %12.0f %8d %10v %10v\n",
			ss.Shard, ss.Items, ss.Batches, ss.AvgBatch, ss.Group, ss.Throughput,
			ss.Dropped, ss.P50.Round(time.Microsecond), ss.P99.Round(time.Microsecond))
	}
	fmt.Printf("\ntotal: %d items, %d dropped, p50 %v, p99 %v\n",
		st.Items, st.Dropped, st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond))
}

// groupTrail renders a group-size history compactly, eliding the middle
// of long trajectories.
func groupTrail(hist []int) string {
	if len(hist) == 0 {
		return "(no epochs)"
	}
	render := func(gs []int) string {
		parts := make([]string, len(gs))
		for i, g := range gs {
			parts[i] = fmt.Sprint(g)
		}
		return strings.Join(parts, " ")
	}
	if len(hist) <= 40 {
		return render(hist)
	}
	return render(hist[:20]) + " ... " + render(hist[len(hist)-20:])
}
