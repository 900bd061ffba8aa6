package workload

// This file is the scenario registry: the YCSB-style pluggable workload
// layer (after yabf's workload.go/generator split) that replaces the
// ad-hoc KeyMix/OpMix/RangeMix flag plumbing in cmd/isiserve. A Scenario
// names a workload shape — its operation mix, key distribution, and
// default service-facing knobs — and mints seeded per-worker op streams
// over a shared per-run state (the read-latest high-water mark, the
// insert sequence). Registered scenarios cover the YCSB core analogues
// A–F plus the repo-native join-heavy and range-wide mixes; CI gates one
// committed BENCH_serve*.json trajectory per matrix scenario.

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ReqKind classifies one generated request.
type ReqKind uint8

const (
	// ReqRead is a point lookup (or join probe when the scenario's mix
	// says so — the consumer decides by stream, not per request).
	ReqRead ReqKind = iota
	// ReqInsert upserts Index → Val.
	ReqInsert
	// ReqDelete removes Index.
	ReqDelete
	// ReqRange scans Width domain entries starting at Index.
	ReqRange
	// ReqJoin probes the build side with the key of Index.
	ReqJoin
)

// String names the request kind.
func (k ReqKind) String() string {
	switch k {
	case ReqRead:
		return "read"
	case ReqInsert:
		return "insert"
	case ReqDelete:
		return "delete"
	case ReqRange:
		return "range"
	case ReqJoin:
		return "join"
	}
	return "unknown"
}

// Req is one generated request. Index is a key index (possibly at or
// above the initial domain for fresh inserts); Width is set for ranges,
// Val for inserts, Miss marks reads that should probe a verifiably
// absent key.
type Req struct {
	Kind  ReqKind
	Index int
	Width int
	Val   uint32
	Miss  bool
}

// Stream generates one worker's request sequence. Not safe for
// concurrent use; scenarios mint one Stream per worker.
type Stream interface {
	Next() Req
}

// ScenarioConfig is a scenario's parameterization: the operation mix,
// the key distribution, and the service-facing workload knobs. Zero
// fractions mean "none of that op"; the read fraction is the remainder
// after InsertFrac+DeleteFrac+RMWFrac+RangeFrac+JoinFrac.
type ScenarioConfig struct {
	// Operation mix (fractions of the op stream, each in [0,1], summing
	// to ≤ 1; the remainder is point reads). RMWFrac draws emit a read
	// immediately followed by an insert of the same index —
	// read-modify-write via Insert-after-Lookup.
	InsertFrac float64
	DeleteFrac float64
	RMWFrac    float64
	RangeFrac  float64
	JoinFrac   float64

	// Key distribution: zipfian (KeyMix: ZipfFrac of draws from
	// Zipf(Theta), rest uniform), uniform, hotspot (HotSet of the domain
	// gets HotOpn of the draws), latest (Zipf-distributed distance from
	// the insert frontier), or exponential (ExpPercentile of the mass in
	// the first ExpFrac of the domain).
	Dist     string
	ZipfFrac float64
	Theta    float64
	HotSet   float64
	HotOpn   float64
	ExpFrac  float64
	ExpPct   float64

	// MissFrac of reads probe verifiably absent keys; FreshFrac of
	// inserts target fresh indices above the domain (growing it).
	MissFrac  float64
	FreshFrac float64

	// MeanWidth is the mean range width in domain entries (ranges draw
	// uniformly in [1, 2·MeanWidth−1] as RangeMix).
	MeanWidth int

	// Vector is the admission column width for single-kind kernel
	// streams (pure read / join / range); 0 = point admission. Mixed
	// streams always run point admission.
	Vector int

	// Rate is the closed-loop target throughput in ops/second (token
	// pacing via Throttle; 0 = unpaced).
	Rate float64

	// Run shape, filled by the driver: the key domain size, the worker
	// count, and the seed.
	Domain  int
	Workers int
	Seed    uint64
}

// Setup is what a run must provision before streaming: whether the
// service needs a join build side.
type Setup struct {
	NeedsBuild bool
}

// Scenario is one named, registered workload: its identity, its default
// configuration, the run setup it requires, and a per-run source of
// seeded per-worker op streams.
type Scenario interface {
	// Name is the registry key (e.g. "ycsb-a").
	Name() string
	// Describe summarizes the mix in one line.
	Describe() string
	// Defaults returns the scenario's default config (Domain/Workers/
	// Seed zero — the driver fills them).
	Defaults() ScenarioConfig
	// Setup reports what the given config requires of the run.
	Setup(cfg ScenarioConfig) Setup
	// Streams returns a per-run stream factory: calling it with a worker
	// id mints that worker's deterministic stream. Shared per-run state
	// (insert frontier, value sequence) lives in the factory's closure,
	// so one factory must not be reused across runs.
	Streams(cfg ScenarioConfig) func(worker int) Stream
}

// The registry. Registration happens in init; lookups may come from any
// goroutine afterwards, so the maps are never mutated post-init.
var (
	scenarios = map[string]Scenario{}
	// aliases are the CI matrix names: short handles for the canonical
	// scenarios each committed BENCH_serve*.json trajectory tracks.
	aliases = map[string]string{
		"smoke": "ycsb-c",
		"write": "ycsb-a",
		"range": "ycsb-e",
		"join":  "join-heavy",
		"net":   "net-smoke",
		"stall": "write-storm",
	}
)

// Register adds a scenario under its name. Call from init only;
// duplicate names panic.
func Register(s Scenario) {
	if _, dup := scenarios[s.Name()]; dup {
		panic("workload: duplicate scenario " + s.Name())
	}
	scenarios[s.Name()] = s
}

// Get resolves a scenario by name or alias.
func Get(name string) (Scenario, bool) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	s, ok := scenarios[name]
	return s, ok
}

// Names lists the registered canonical scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(scenarios))
	for n := range scenarios {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Aliases lists the registered aliases as "alias=canonical", sorted.
func Aliases() []string {
	out := make([]string, 0, len(aliases))
	for a, c := range aliases {
		out = append(out, a+"="+c)
	}
	sort.Strings(out)
	return out
}

// ParseScenario resolves a scenario spec of the form
// "name[:key=val[,key=val...]]" — the registered scenario's defaults
// with per-run overrides. Override keys: insert, delete, rmw, range,
// join (mix fractions); dist, zipffrac, theta, hotset, hotopn, expfrac,
// exppct (distribution); miss, fresh, width, vector, rate (workload
// knobs). Returns the scenario and its overridden config.
func ParseScenario(spec string) (Scenario, ScenarioConfig, error) {
	name, overrides, _ := strings.Cut(spec, ":")
	s, ok := Get(name)
	if !ok {
		return nil, ScenarioConfig{}, fmt.Errorf(
			"unknown scenario %q (have %s; aliases %s)",
			name, strings.Join(Names(), " "), strings.Join(Aliases(), " "))
	}
	cfg := s.Defaults()
	if overrides != "" {
		for _, kv := range strings.Split(overrides, ",") {
			k, v, found := strings.Cut(kv, "=")
			if !found || k == "" {
				return nil, ScenarioConfig{}, fmt.Errorf("scenario %s: malformed override %q (want key=val)", name, kv)
			}
			if err := cfg.set(k, v); err != nil {
				return nil, ScenarioConfig{}, fmt.Errorf("scenario %s: %w", name, err)
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, ScenarioConfig{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	return s, cfg, nil
}

// set applies one parsed override.
func (c *ScenarioConfig) set(key, val string) error {
	frac := func(dst *float64) error {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("override %s=%q: want a fraction in [0,1]", key, val)
		}
		*dst = f
		return nil
	}
	switch key {
	case "insert":
		return frac(&c.InsertFrac)
	case "delete":
		return frac(&c.DeleteFrac)
	case "rmw":
		return frac(&c.RMWFrac)
	case "range":
		return frac(&c.RangeFrac)
	case "join":
		return frac(&c.JoinFrac)
	case "zipffrac":
		return frac(&c.ZipfFrac)
	case "hotset":
		return frac(&c.HotSet)
	case "hotopn":
		return frac(&c.HotOpn)
	case "expfrac":
		return frac(&c.ExpFrac)
	case "exppct":
		return frac(&c.ExpPct)
	case "miss":
		return frac(&c.MissFrac)
	case "fresh":
		return frac(&c.FreshFrac)
	case "theta":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f <= 1 || f > 16 {
			return fmt.Errorf("override theta=%q: want an exponent in (1,16]", val)
		}
		c.Theta = f
		return nil
	case "rate":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return fmt.Errorf("override rate=%q: want ops/second ≥ 0", val)
		}
		c.Rate = f
		return nil
	case "width":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 || n > 1<<14 {
			return fmt.Errorf("override width=%q: want an integer in [1,16384]", val)
		}
		c.MeanWidth = n
		return nil
	case "vector":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 || n > 1<<20 {
			return fmt.Errorf("override vector=%q: want an integer in [0,1048576]", val)
		}
		c.Vector = n
		return nil
	case "dist":
		switch val {
		case "zipfian", "uniform", "hotspot", "latest", "exponential":
			c.Dist = val
			return nil
		}
		return fmt.Errorf("override dist=%q: want zipfian|uniform|hotspot|latest|exponential", val)
	}
	return fmt.Errorf("unknown override key %q", key)
}

// Validate rejects configs no stream can honor.
func (c ScenarioConfig) Validate() error {
	sum := c.InsertFrac + c.DeleteFrac + c.RMWFrac + c.RangeFrac + c.JoinFrac
	if sum > 1+1e-9 {
		return fmt.Errorf("op-mix fractions sum to %.3f > 1", sum)
	}
	switch c.Dist {
	case "zipfian", "uniform", "hotspot", "latest", "exponential":
	default:
		return fmt.Errorf("unknown key distribution %q", c.Dist)
	}
	if c.MeanWidth < 1 && c.RangeFrac > 0 {
		return fmt.Errorf("range fraction %.2f with mean width %d < 1", c.RangeFrac, c.MeanWidth)
	}
	if c.JoinFrac > 0 && c.JoinFrac < 1 {
		// Mixed join streams would need a second probe column plumbed
		// through point admission; no registered scenario needs them.
		return fmt.Errorf("join fraction must be 0 or 1, got %.2f", c.JoinFrac)
	}
	return nil
}

// Mixed reports whether the stream mixes op kinds (forcing point
// admission) rather than being a single vectorizable kernel op.
func (c ScenarioConfig) Mixed() bool {
	writes := c.InsertFrac + c.DeleteFrac + c.RMWFrac
	if writes > 0 {
		return true
	}
	// Pure read, pure range, or pure join are vectorizable.
	return !(c.RangeFrac == 0 || c.RangeFrac == 1) // partial range mixes
}

// keyGen builds the per-worker read-key generator for the config.
func (c ScenarioConfig) keyGen(seed uint64, hw *atomic.Int64) KeyGen {
	switch c.Dist {
	case "uniform":
		return NewKeyMix(seed, c.Domain, 0, 0)
	case "hotspot":
		return NewHotspot(seed, c.Domain, c.HotSet, c.HotOpn)
	case "latest":
		return NewLatest(seed, c.Domain, c.Theta, hw)
	case "exponential":
		return NewExponential(seed, c.Domain, c.ExpFrac, c.ExpPct)
	}
	return NewKeyMix(seed, c.Domain, c.ZipfFrac, c.Theta)
}

// coreScenario is the parameterized scenario every registered name
// instantiates (the yabf CoreWorkload shape): the behavior differences
// between YCSB A–F and the repo-native mixes are entirely in the
// defaults.
type coreScenario struct {
	name     string
	describe string
	defaults ScenarioConfig
}

func (s *coreScenario) Name() string             { return s.name }
func (s *coreScenario) Describe() string         { return s.describe }
func (s *coreScenario) Defaults() ScenarioConfig { return s.defaults }

func (s *coreScenario) Setup(cfg ScenarioConfig) Setup {
	return Setup{NeedsBuild: cfg.JoinFrac > 0}
}

func (s *coreScenario) Streams(cfg ScenarioConfig) func(worker int) Stream {
	// Per-run shared state: the insert frontier the latest distribution
	// chases, and the stream-unique insert value sequence.
	hw := NewHighWater(cfg.Domain)
	seq := new(atomic.Uint32)
	return func(worker int) Stream {
		wseed := cfg.Seed + uint64(worker)*0x9e3779b97f4a7c15
		return &coreStream{
			cfg:  cfg,
			rng:  rand.New(rand.NewPCG(wseed^0x6c62272e07bb0142, wseed+0x27d4eb2f165667c5)),
			keys: cfg.keyGen(wseed, hw),
			hw:   hw,
			seq:  seq,
		}
	}
}

// coreStream is one worker's draw loop over a coreScenario config.
type coreStream struct {
	cfg  ScenarioConfig
	rng  *rand.Rand
	keys KeyGen
	hw   *atomic.Int64
	seq  *atomic.Uint32
	// pending is the insert half of a read-modify-write pair, emitted on
	// the Next call after its read.
	pending bool
	pendIdx int
}

// Next returns the next request.
func (st *coreStream) Next() Req {
	if st.pending {
		st.pending = false
		return Req{Kind: ReqInsert, Index: st.pendIdx, Val: st.seq.Add(1)}
	}
	c := &st.cfg
	u := st.rng.Float64()
	switch {
	case u < c.InsertFrac:
		return st.insert()
	case u < c.InsertFrac+c.DeleteFrac:
		return Req{Kind: ReqDelete, Index: st.keys.Next()}
	case u < c.InsertFrac+c.DeleteFrac+c.RMWFrac:
		// Read-modify-write: a read now, an insert of the same index on
		// the next draw (Insert-after-Lookup).
		idx := st.keys.Next()
		st.pending, st.pendIdx = true, idx
		return Req{Kind: ReqRead, Index: idx}
	case u < c.InsertFrac+c.DeleteFrac+c.RMWFrac+c.RangeFrac:
		width := 1
		if c.MeanWidth > 1 {
			width = 1 + int(st.rng.Uint64N(uint64(2*c.MeanWidth-1)))
		}
		return Req{Kind: ReqRange, Index: st.keys.Next(), Width: width}
	case u < c.InsertFrac+c.DeleteFrac+c.RMWFrac+c.RangeFrac+c.JoinFrac:
		return Req{Kind: ReqJoin, Index: st.keys.Next(), Miss: st.miss()}
	}
	return Req{Kind: ReqRead, Index: st.keys.Next(), Miss: st.miss()}
}

// insert draws an insert: FreshFrac of them advance the domain frontier
// (new keys above it, visible to the latest distribution), the rest
// overwrite in-domain keys.
func (st *coreStream) insert() Req {
	idx := st.keys.Next()
	if st.cfg.FreshFrac > 0 && st.rng.Float64() < st.cfg.FreshFrac {
		idx = int(st.hw.Add(1))
	}
	return Req{Kind: ReqInsert, Index: idx, Val: st.seq.Add(1)}
}

func (st *coreStream) miss() bool {
	return st.cfg.MissFrac > 0 && st.rng.Float64() < st.cfg.MissFrac
}

// AdHoc wraps a config as an unregistered scenario — the bridge for
// drivers assembling a workload from loose flags rather than the
// registry (isiserve's legacy -mode family). The config is used as the
// scenario's defaults verbatim.
func AdHoc(name string, cfg ScenarioConfig) Scenario {
	return &coreScenario{name: name, describe: "ad-hoc (unregistered)", defaults: cfg}
}

// The registered scenarios. The zipfian defaults (ZipfFrac 0.5, Theta
// 1.2, MissFrac 0.1) deliberately match the historical isiserve smoke
// workload, so the smoke alias reproduces the committed BENCH_serve.json
// trajectory through the registry.
func init() {
	base := ScenarioConfig{
		Dist: "zipfian", ZipfFrac: 0.5, Theta: 1.2,
		HotSet: 0.2, HotOpn: 0.8, ExpFrac: 0.2, ExpPct: 0.95,
		MissFrac: 0.1, MeanWidth: 16,
	}
	def := func(mut func(*ScenarioConfig)) ScenarioConfig {
		c := base
		mut(&c)
		return c
	}
	Register(&coreScenario{
		name:     "ycsb-a",
		describe: "update-heavy: 50% reads / 50% in-place inserts, zipfian",
		defaults: def(func(c *ScenarioConfig) { c.InsertFrac = 0.5 }),
	})
	Register(&coreScenario{
		name:     "ycsb-b",
		describe: "read-mostly: 95% reads / 5% inserts, zipfian",
		defaults: def(func(c *ScenarioConfig) { c.InsertFrac = 0.05 }),
	})
	Register(&coreScenario{
		name:     "ycsb-c",
		describe: "read-only: 100% point lookups, zipfian, vectorized",
		defaults: def(func(c *ScenarioConfig) { c.Vector = 4096 }),
	})
	Register(&coreScenario{
		name:     "ycsb-d",
		describe: "read-latest: 95% latest-skewed reads / 5% fresh inserts",
		defaults: def(func(c *ScenarioConfig) {
			c.Dist = "latest"
			c.InsertFrac, c.FreshFrac = 0.05, 1
			c.MissFrac = 0 // recency reads target keys known to exist
		}),
	})
	Register(&coreScenario{
		name:     "ycsb-e",
		describe: "short ranges: 95% scans (mean width 16) / 5% fresh inserts",
		defaults: def(func(c *ScenarioConfig) {
			c.RangeFrac, c.InsertFrac, c.FreshFrac = 0.95, 0.05, 1
		}),
	})
	Register(&coreScenario{
		name:     "ycsb-f",
		describe: "read-modify-write: 50% reads / 50% lookup-then-insert pairs",
		defaults: def(func(c *ScenarioConfig) { c.RMWFrac = 0.5 }),
	})
	Register(&coreScenario{
		name:     "join-heavy",
		describe: "100% join probes against a skewed build side, vectorized",
		defaults: def(func(c *ScenarioConfig) { c.JoinFrac, c.Vector = 1, 4096 }),
	})
	Register(&coreScenario{
		name:     "net-smoke",
		describe: "network smoke: 100% point lookups, zipfian, per-connection wire columns (drive with isiserve -remote against isiserved)",
		defaults: def(func(c *ScenarioConfig) { c.Vector = 1024 }),
	})
	Register(&coreScenario{
		name: "write-storm",
		describe: "stall-provoking write storm: 90% inserts (half fresh) / 10% reads, uniform — " +
			"sized so the live delta refills during every epoch merge; the CI leg gates WriteStalls == 0",
		defaults: def(func(c *ScenarioConfig) {
			c.Dist = "uniform"
			c.InsertFrac, c.FreshFrac = 0.9, 0.5
			c.MissFrac = 0
		}),
	})
	Register(&coreScenario{
		name:     "range-wide",
		describe: "100% wide scans (mean width 256), scan-dominated, vectorized",
		defaults: def(func(c *ScenarioConfig) { c.RangeFrac, c.MeanWidth, c.Vector = 1, 256, 256 }),
	})
}
