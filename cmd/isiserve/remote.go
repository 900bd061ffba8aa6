package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/client"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Remote mode (-remote addr): the same scenario engine drives a
// cmd/isiserved process over the wire protocol through the client
// package instead of an in-process serve.Service. The workload is
// generated identically — same scenario resolution, same key encoding,
// same vector/point admission split — so a remote run with the same
// seed measures the network front-end against the same request stream
// an in-process run measures the service with, and the committed
// BENCH_serve_net.json baseline is directly comparable in shape to the
// in-process trajectories.
//
// The client assumes the server's domain shape (the -dict/-seed flags
// must match the isiserved invocation); -smoke pins both sides to the
// canonical CI sizing, so `isiserved -smoke` + `isiserve -remote ...
// -smoke` always line up.

// remoteParams carries the resolved run shape into runRemote. The
// scenario is already parsed, validated, and sized (cfg.Domain/Workers/
// Seed set) by main.
type remoteParams struct {
	addr, tenant string
	conns        int
	scn          workload.Scenario
	cfg          workload.ScenarioConfig
	scnName      string
	domainKeys   int
	deadline     time.Duration
	rangeLimit   int
	workers      int
	duration     time.Duration
	seed         uint64
	jsonOut      string
}

// runRemote dials, drives the load, drains, and reports. Returns the
// process exit code.
func runRemote(p remoteParams) int {
	// Dial with retry: the CI net-smoke leg starts isiserved in the
	// background and the listen socket may trail the process by a beat.
	var (
		rm  *client.Remote
		err error
	)
	for deadline := time.Now().Add(15 * time.Second); ; {
		rm, err = client.Dial(p.addr,
			client.WithConns(p.conns), client.WithTenant(p.tenant))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "isiserve: remote dial:", err)
			return 1
		}
		time.Sleep(200 * time.Millisecond)
	}
	defer rm.Close()

	admission := "point"
	if p.cfg.Vector > 0 {
		admission = fmt.Sprintf("vector/%d", p.cfg.Vector)
	}
	scnLabel := p.scnName
	if scnLabel == "" {
		scnLabel = "(legacy flags)"
	}
	fmt.Printf("isiserve: remote=%s conns=%d tenant=%s scenario=%s mode=%s admission=%s server-shards=%d pacing=%s\n",
		p.addr, p.conns, p.tenant, scnLabel, modeOf(p.cfg), admission,
		rm.Shards(), pacingOf(p.cfg, p.scnName != ""))

	// Pacing mirrors the in-process driver: closed-loop token bucket for
	// scenario runs, open-loop exponential gaps for the legacy family.
	gen := workload.OpenLoop{Workers: p.workers, Duration: p.duration, Seed: p.seed}
	if p.cfg.Rate > 0 {
		if p.scnName != "" {
			b := p.cfg.Vector
			if b < 1 {
				b = 1
			}
			gen.Throttle = workload.NewThrottle(p.cfg.Rate, 2*p.workers*b)
		} else {
			gen.Rate = p.cfg.Rate
		}
	}

	ctx := context.Background()
	start := time.Now()
	var counts opCounts
	submitted := remoteLoad(ctx, rm, p.scn, p.cfg, gen, p.deadline, p.rangeLimit, &counts)
	genElapsed := time.Since(start)

	// Point submissions are fire-and-forget; Quiesce is the remote
	// analogue of svc.Close's drain — flush the coalescers and wait for
	// every in-flight frame's response.
	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	qerr := rm.Quiesce(qctx)
	cancel()
	elapsed := time.Since(start)
	if qerr != nil {
		fmt.Fprintln(os.Stderr, "isiserve: remote drain:", qerr)
		return 1
	}

	cs := rm.Stats()
	drained := cs.Ops - cs.Dropped
	fmt.Printf("submitted %d requests in %v; all acked after %v (%.0f req/s end-to-end)\n",
		submitted, genElapsed.Round(time.Millisecond), elapsed.Round(time.Millisecond),
		float64(drained)/elapsed.Seconds())
	expected := counts.read.Load() + counts.insert.Load() + counts.del.Load() +
		counts.join.Load() + counts.rng.Load()
	if cs.Dropped > 0 {
		fmt.Printf("dropped before drain (deadline/cancel): %d of %d (%.2f%%)\n",
			cs.Dropped, expected, 100*float64(cs.Dropped)/float64(expected))
	}
	if cs.Shed > 0 {
		fmt.Printf("shed by server (quota/overload/shutdown): %d of %d (%.2f%%)\n",
			cs.Shed, expected, 100*float64(cs.Shed)/float64(expected))
	}
	// Every offered op must come back exactly once: served (possibly
	// dropped) or shed. Anything else is a protocol accounting bug.
	if expected != cs.Ops+cs.Shed {
		fmt.Fprintf(os.Stderr, "isiserve: BUG: offered %d ops but %d acked + %d shed\n",
			expected, cs.Ops, cs.Shed)
		return 1
	}
	fmt.Printf("wire: %d conns, frames %d out / %d in, bytes %d out / %d in, p50 %v, p99 %v\n",
		cs.Conns, cs.FramesOut, cs.FramesIn, cs.BytesOut, cs.BytesIn,
		cs.P50.Round(time.Microsecond), cs.P99.Round(time.Microsecond))

	if p.jsonOut != "" {
		calNS := calibrate()
		cfg := p.cfg
		rcfg := RunConfig{
			Scenario: p.scnName, Mode: modeOf(cfg), Index: indexNative,
			Shards: rm.Shards(), DomainKeys: p.domainKeys,
			Vector:  cfg.Vector,
			Workers: p.workers, RateRPS: cfg.Rate, Pacing: pacingOf(cfg, p.scnName != ""),
			DurationMS: p.duration.Milliseconds(),
			Dist:       cfg.Dist, ZipfFrac: cfg.ZipfFrac, ZipfTheta: cfg.Theta,
			HotSet: cfg.HotSet, HotOpn: cfg.HotOpn, ExpFrac: cfg.ExpFrac, ExpPct: cfg.ExpPct,
			MissFrac: cfg.MissFrac, InsertFrac: cfg.InsertFrac, DeleteFrac: cfg.DeleteFrac,
			RMWFrac: cfg.RMWFrac, RangeFrac: cfg.RangeFrac, JoinFrac: cfg.JoinFrac,
			FreshFrac: cfg.FreshFrac,
			Writes:    cfg.InsertFrac + cfg.DeleteFrac + cfg.RMWFrac,
			Seed:      p.seed,
			Remote:    true, Conns: p.conns,
		}
		if cfg.RangeFrac > 0 {
			rcfg.Width = cfg.MeanWidth
		}
		rep := buildRemoteReport(rcfg, cs, submitted, genElapsed, elapsed, calNS)
		if err := writeReport(p.jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "isiserve: report:", err)
			return 1
		}
		if p.jsonOut != "-" {
			fmt.Printf("\nreport: %s (throughput %.0f req/s, calibration %.2f ns, score %.1f)\n",
				p.jsonOut, rep.Results.ThroughputRPS, calNS, rep.Results.Score)
		}
	}
	return 0
}

// remoteLoad is runLoad's twin against the remote binding: the same
// four admission paths, the same key encoding, the same counting. The
// two drivers stay separate functions because the future types differ
// between serve and client — the call sites are line-for-line parallel
// on purpose.
func remoteLoad(ctx context.Context, rm *client.Remote, scn workload.Scenario,
	cfg workload.ScenarioConfig, gen workload.OpenLoop,
	deadline time.Duration, rangeLimit int, counts *opCounts) int {

	streams := scn.Streams(cfg)
	batchCtx := func() (context.Context, context.CancelFunc) {
		if deadline > 0 {
			return context.WithTimeout(ctx, deadline)
		}
		return ctx, nil
	}
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
					hi = lo + (wd-1)*2
				}
				col[i] = serve.RangeOp(lo, hi, rangeLimit)
			}
			bctx, cancel := batchCtx()
			rm.RangeBatch(bctx, col).Wait()
			if cancel != nil {
				cancel()
			}
		})
		counts.rng.Add(uint64(n))
		return n

	case cfg.JoinFrac == 1 && cfg.Vector > 0:
		n := gen.RunBatches(cfg.Vector, keySource, func(keys []uint64) {
			bctx, cancel := batchCtx()
			rm.JoinBatch(bctx, keys).WaitJoin()
			if cancel != nil {
				cancel()
			}
		})
		counts.join.Add(uint64(n))
		return n

	case !cfg.Mixed() && cfg.JoinFrac == 0 && cfg.Vector > 0:
		n := gen.RunBatches(cfg.Vector, keySource, func(keys []uint64) {
			bctx, cancel := batchCtx()
			rm.GoBatch(bctx, keys).Wait()
			if cancel != nil {
				cancel()
			}
		})
		counts.read.Add(uint64(n))
		return n
	}

	return gen.RunOps(streams, func(r workload.Req) {
		switch r.Kind {
		case workload.ReqInsert:
			counts.insert.Add(1)
			rm.Insert(ctx, uint64(r.Index)*2, r.Val)
		case workload.ReqDelete:
			counts.del.Add(1)
			rm.Delete(ctx, uint64(r.Index)*2)
		case workload.ReqRange:
			counts.rng.Add(1)
			lo := uint64(r.Index) * 2
			hi := lo
			if r.Width > 0 {
				hi = lo + uint64(r.Width-1)*2
			}
			rm.Range(ctx, lo, hi, rangeLimit)
		case workload.ReqJoin:
			counts.join.Add(1)
			key := uint64(r.Index) * 2
			if r.Miss {
				key++
			}
			rm.GoJoin(ctx, key)
		default:
			counts.read.Add(1)
			key := uint64(r.Index) * 2
			if r.Miss {
				key++
			}
			rm.Go(ctx, key)
		}
	})
}

// buildRemoteReport assembles the isiserve-report/v3 run report from
// the client-observed stats. Remote runs have no shard table, group
// trajectory, or latency time series — those live on the server — and
// ranges are counted once per query (no shard fan-out visible here), so
// Drained needs no shard division. The single client-side wait
// histogram covers all op classes; it lands under the run's dominant
// mode for single-kind streams.
func buildRemoteReport(cfg RunConfig, cs client.Stats, submitted int, gen, total time.Duration, calNS float64) RunReport {
	drained := cs.Ops - cs.Dropped
	rps := float64(drained) / total.Seconds()
	res := RunResults{
		Submitted:        submitted,
		Drained:          drained,
		Dropped:          cs.Dropped + cs.Shed,
		DroppedCancelled: cs.Dropped,
		DroppedShed:      cs.Shed,
		GenSeconds:       gen.Seconds(),
		TotalSeconds:     total.Seconds(),
		ThroughputRPS:    rps,
		Score:            rps * calNS,
		P50NS:            int64(cs.P50),
		P99NS:            int64(cs.P99),
	}
	if cfg.Mode != "mixed" {
		res.PerOp = map[string]OpLatencyJSON{
			cfg.Mode: {Count: drained, P50NS: int64(cs.P50), P99NS: int64(cs.P99)},
		}
	}
	return RunReport{
		Schema:    reportSchema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Host: HostInfo{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			CPUs: runtime.NumCPU(), CalibrationNS: calNS,
		},
		Config:  cfg,
		Results: res,
	}
}
