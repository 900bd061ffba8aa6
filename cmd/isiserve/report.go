package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// This file is the machine-readable side of isiserve: the structured
// run report (-json, and the committed BENCH_serve*.json trajectories
// CI replays), the per-op latency time-series sampler, the calibration
// microbenchmark that makes scores comparable across machines, and the
// optional observability HTTP listener (-obs) exposing the live obs
// registry/span/decision snapshot plus net/http/pprof.

// reportSchema versions the JSON layout; v2 added the scenario identity
// (config.scenario, the mix/distribution fields) and the per-op latency
// time series (results.series); v3 added the remote-mode identity
// (config.remote, config.conns — the network front-end runs) and the
// dropped-by-reason breakdown (results.dropped_cancelled/_shed/_closed).
// cmd/benchcmp reads v1 through v3.
const reportSchema = "isiserve-report/v3"

// indexNative is every report's config.index: the service has one
// index. benchcmp refuses a config that differs from its baseline's, and
// the committed BENCH_serve*.json baselines record "native".
const indexNative = "native"

// RunReport is one benchmark run, serialized to -json and to the
// repo-root BENCH_serve*.json trajectories. Config pins everything that
// shapes the workload, so a comparator can refuse apples-to-oranges
// diffs; Calibration carries the host-speed normalization.
type RunReport struct {
	Schema    string     `json:"schema"`
	Timestamp string     `json:"timestamp"`
	GoVersion string     `json:"go"`
	Host      HostInfo   `json:"host"`
	Config    RunConfig  `json:"config"`
	Results   RunResults `json:"results"`
}

// HostInfo identifies the machine shape and its measured speed.
// CalibrationNS is the ns/op of a fixed dependent-load microbenchmark
// (see calibrate): a slower machine has a proportionally larger value,
// so Score = ThroughputRPS × CalibrationNS is a dimensionless,
// host-normalized figure a CI runner can compare against a baseline
// committed from a different machine.
type HostInfo struct {
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	CPUs          int     `json:"cpus"`
	CalibrationNS float64 `json:"calibration_ns"`
}

// RunConfig pins the workload-shaping parameters of the run: the
// scenario identity, its operation mix and key distribution, and the
// service shape. benchcmp compares it structurally, so every knob here
// is part of the drift check.
type RunConfig struct {
	Scenario   string  `json:"scenario"` // "" = ad-hoc legacy flags
	Mode       string  `json:"mode"`     // lookup | join | range | mixed
	Index      string  `json:"index"`    // always indexNative
	Shards     int     `json:"shards"`
	DomainKeys int     `json:"domain_keys"`
	Vector     int     `json:"vector"` // 0 = point admission
	Batch      int     `json:"batch"`
	Group      int     `json:"group"`
	MinGroup   int     `json:"min_group"`
	MaxGroup   int     `json:"max_group"`
	Adaptive   bool    `json:"adaptive"`
	Workers    int     `json:"workers"`
	RateRPS    float64 `json:"rate_rps"` // 0 = unpaced
	Pacing     string  `json:"pacing"`   // none | open | closed
	DurationMS int64   `json:"duration_ms"`
	Dist       string  `json:"key_dist"`
	ZipfFrac   float64 `json:"zipf_frac"`
	ZipfTheta  float64 `json:"zipf_theta"`
	HotSet     float64 `json:"hot_set"`
	HotOpn     float64 `json:"hot_opn"`
	ExpFrac    float64 `json:"exp_frac"`
	ExpPct     float64 `json:"exp_pct"`
	MissFrac   float64 `json:"miss_frac"`
	InsertFrac float64 `json:"insert_frac"`
	DeleteFrac float64 `json:"delete_frac"`
	RMWFrac    float64 `json:"rmw_frac"`
	RangeFrac  float64 `json:"range_frac"`
	JoinFrac   float64 `json:"join_frac"`
	FreshFrac  float64 `json:"fresh_frac"`
	Writes     float64 `json:"writes_frac"` // insert+delete+rmw, the v1 aggregate
	Width      int     `json:"range_width"`
	Seed       uint64  `json:"seed"`
	// Remote marks a run driven through the wire protocol against an
	// isiserved process (the -remote flag); Conns is its connection
	// fan-out. The server address itself is deliberately not part of the
	// config — it would make every baseline host-specific.
	Remote bool `json:"remote"`
	Conns  int  `json:"conns"`
}

// OpLatencyJSON is one op class's latency summary in nanoseconds.
type OpLatencyJSON struct {
	Count uint64 `json:"count"`
	P50NS int64  `json:"p50_ns"`
	P99NS int64  `json:"p99_ns"`
}

// SeriesPoint is one time-series window: the per-op-class latency of
// the requests that completed in the -tsinterval ending TMS
// milliseconds after load start. Classes with no completions in the
// window are omitted.
type SeriesPoint struct {
	TMS   int64                    `json:"t_ms"`
	PerOp map[string]OpLatencyJSON `json:"per_op"`
}

// ShardReport is one shard's slice of the run.
type ShardReport struct {
	Shard      int     `json:"shard"`
	Items      uint64  `json:"items"`
	Batches    uint64  `json:"batches"`
	AvgBatch   float64 `json:"avg_batch"`
	Group      int     `json:"group"` // final group size
	Throughput float64 `json:"drain_rate_ips"`
	Dropped    uint64  `json:"dropped"`
	P50NS      int64   `json:"p50_ns"`
	P99NS      int64   `json:"p99_ns"`
	Epoch      uint64  `json:"epoch"`
	Rebuilds   uint64  `json:"rebuilds"`
}

// RunResults is the run's outcome. Score is the host-normalized
// throughput (ThroughputRPS × CalibrationNS) the CI regression gate
// compares. Series is the per-op latency time series (v2).
type RunResults struct {
	Submitted int    `json:"submitted"`
	Drained   uint64 `json:"drained"`
	// Dropped totals the requests that completed unserved; the by-reason
	// split (v3) separates client cancellations from deliberate
	// backpressure sheds and shutdown refusals.
	Dropped          uint64                   `json:"dropped"`
	DroppedCancelled uint64                   `json:"dropped_cancelled"`
	DroppedShed      uint64                   `json:"dropped_shed"`
	DroppedClosed    uint64                   `json:"dropped_closed"`
	GenSeconds       float64                  `json:"gen_seconds"`
	TotalSeconds     float64                  `json:"total_seconds"`
	ThroughputRPS    float64                  `json:"throughput_rps"`
	Score            float64                  `json:"score"`
	P50NS            int64                    `json:"p50_ns"`
	P99NS            int64                    `json:"p99_ns"`
	PerOp            map[string]OpLatencyJSON `json:"per_op"`
	Series           []SeriesPoint            `json:"series,omitempty"`
	Inserts          uint64                   `json:"inserts,omitempty"`
	Deletes          uint64                   `json:"deletes,omitempty"`
	// WriteStalls is serve.Stats.WriteStalls: degraded-mode generation-
	// backlog ticks. Writes never park, so the stall CI leg gates this
	// at exactly zero.
	WriteStalls  uint64        `json:"write_stalls"`
	Rebuilds     uint64        `json:"rebuilds,omitempty"`
	RangeQueries uint64        `json:"range_queries,omitempty"`
	RangeEntries uint64        `json:"range_entries,omitempty"`
	FinalGroups  []int         `json:"final_groups"`
	Shards       []ShardReport `json:"shards"`
}

// seriesSampler snapshots the service's per-op latency windows on a
// fixed cadence from its own goroutine (the hot path is untouched: a
// sample only reads the shards' histogram atomics). stop takes a final
// flush window — the tail between the last tick and Close-drain — and
// returns the collected points.
type seriesSampler struct {
	svc      *serve.Service
	interval time.Duration
	start    time.Time
	win      serve.PerOpWindow
	points   []SeriesPoint
	quit     chan struct{}
	done     sync.WaitGroup
}

// startSampler begins sampling; a zero interval (or nil service)
// disables the series and stop returns nil.
func startSampler(svc *serve.Service, interval time.Duration) *seriesSampler {
	s := &seriesSampler{svc: svc, interval: interval, start: time.Now(), quit: make(chan struct{})}
	if svc == nil || interval <= 0 {
		return s
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.sample()
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

// sample takes one window. Only the sampler goroutine (and stop, after
// that goroutine exits) calls it.
func (s *seriesSampler) sample() {
	lat := s.svc.WindowPerOp(&s.win)
	perOp := map[string]OpLatencyJSON{}
	add := func(name string, l serve.OpLatency) {
		if l.Count > 0 {
			perOp[name] = opLatJSON(l)
		}
	}
	add("lookup", lat.Lookup)
	add("join", lat.Join)
	add("range", lat.Range)
	add("write", lat.Write)
	if len(perOp) == 0 {
		return // idle window (e.g. the run is still loading)
	}
	s.points = append(s.points, SeriesPoint{
		TMS:   time.Since(s.start).Milliseconds(),
		PerOp: perOp,
	})
}

// stop ends sampling, flushes the tail window, and returns the series.
func (s *seriesSampler) stop() []SeriesPoint {
	if s.svc == nil || s.interval <= 0 {
		return nil
	}
	close(s.quit)
	s.done.Wait()
	s.sample()
	return s.points
}

// calibrate measures the host's dependent-load latency: a pointer-chase
// over a 1 MiB permutation ring, the shape the interleaved kernels
// hide. The product throughput × calibration_ns cancels host speed to
// first order, so trajectory points from different machines compare.
// Deterministic layout (fixed LCG permutation), ~10 ms total.
func calibrate() float64 {
	const n = 1 << 17 // 2^17 × 8 B = 1 MiB: past L2 on common parts
	ring := make([]uint64, n)
	// Sattolo's algorithm over a fixed LCG: one cycle visiting every slot,
	// so the chase cannot settle into a short hot loop.
	perm := make([]uint64, n)
	for i := range perm {
		perm[i] = uint64(i)
	}
	rng := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		rng = rng*6364136223846793005 + 1442695040888963407
		j := rng % uint64(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n-1; i++ {
		ring[perm[i]] = perm[i+1]
	}
	ring[perm[n-1]] = perm[0]

	// Best of several passes: scheduler preemption and cold caches only
	// ever slow a fixed-work chase down, so the minimum is the stable
	// estimate of the machine's dependent-load latency.
	const steps = 1 << 21
	var idx uint64
	best := math.MaxFloat64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for s := 0; s < steps; s++ {
			idx = ring[idx]
		}
		if ns := float64(time.Since(t0)) / steps; ns < best {
			best = ns
		}
	}
	if idx == ^uint64(0) {
		panic("unreachable") // keep the chase observable
	}
	return best
}

// buildReport assembles the report from the run's stats.
func buildReport(cfg RunConfig, st serve.Stats, submitted int, gen, total time.Duration, calNS float64) RunReport {
	drainedReqs := float64(st.Items)
	if cfg.Mode == "range" {
		drainedReqs /= float64(cfg.Shards)
	}
	rps := drainedReqs / total.Seconds()
	res := RunResults{
		Submitted:        submitted,
		Drained:          st.Items,
		Dropped:          st.Dropped,
		DroppedCancelled: st.DroppedCancelled,
		DroppedShed:      st.DroppedShed,
		DroppedClosed:    st.DroppedClosed,
		GenSeconds:       gen.Seconds(),
		TotalSeconds:     total.Seconds(),
		ThroughputRPS:    rps,
		Score:            rps * calNS,
		P50NS:            int64(st.P50),
		P99NS:            int64(st.P99),
		PerOp: map[string]OpLatencyJSON{
			"lookup": opLatJSON(st.PerOp.Lookup),
			"join":   opLatJSON(st.PerOp.Join),
			"range":  opLatJSON(st.PerOp.Range),
			"write":  opLatJSON(st.PerOp.Write),
		},
		Inserts:      st.Inserts,
		Deletes:      st.Deletes,
		WriteStalls:  st.WriteStalls,
		Rebuilds:     st.Rebuilds,
		RangeEntries: st.RangeEntries,
	}
	if cfg.Mode == "range" {
		res.RangeQueries = st.Ranges / uint64(max(cfg.Shards, 1))
	}
	for _, ss := range st.Shards {
		res.FinalGroups = append(res.FinalGroups, ss.Group)
		res.Shards = append(res.Shards, ShardReport{
			Shard: ss.Shard, Items: ss.Items, Batches: ss.Batches, AvgBatch: ss.AvgBatch,
			Group: ss.Group, Throughput: ss.Throughput, Dropped: ss.Dropped,
			P50NS: int64(ss.P50), P99NS: int64(ss.P99), Epoch: ss.Epoch, Rebuilds: ss.Rebuilds,
		})
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

func opLatJSON(l serve.OpLatency) OpLatencyJSON {
	return OpLatencyJSON{Count: l.Count, P50NS: int64(l.P50), P99NS: int64(l.P99)}
}

// writeReport writes the report as indented JSON to path ("-" = stdout).
func writeReport(path string, r RunReport) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// serveObs starts the observability HTTP listener (the shared
// obs.Handler exposition: /obs, /metrics, /debug/pprof/*) and returns
// the bound address (addr may use port 0).
func serveObs(addr string, o *obs.Observer) (string, error) {
	return obs.ListenAndServe(addr, o)
}
