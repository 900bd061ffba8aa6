package main

import "time"

// This file is the benchmark's fixed vocabulary: the five workloads with
// their sizes and paced rates, and every metric name with its unit,
// direction and regression bound. BENCHMARK.json at the repository root
// lists the same names; smoke_test.go fails when the two drift apart.
// Later issues refer to workloads and metrics by exactly these names.

// kind is the request shape a workload drives.
type kind uint8

const (
	kindLookup kind = iota // 1024-key GoBatch vectors
	kindJoin               // 1024-key JoinBatch vectors, Matches() consumed
	kindMixed              // 256-op transactions of point futures
)

// spec is one workload's fixed shape. Sizes, vector length, in-flight window
// and paced rate are constants: a faster build must not be offered a
// heavier load, so the rate is never derived from the same run.
type spec struct {
	name string
	kind kind
	// net routes requests through wire.Server and client.Remote over
	// loopback instead of calling the service directly.
	net bool
	// dictLog2 is log2 of the dictionary's key count (values 2·i, so odd
	// keys miss); buildLog2 is log2 of the join build side's tuple count.
	dictLog2, buildLog2 int
	// vector is ops per request; window is requests each client keeps in
	// flight in the closed phase.
	vector, window int
	// pacedOps is the aggregate offered rate of the paced phase in ops/s,
	// frozen at about half the seed's closed-phase throughput on the
	// 2-core reference host.
	pacedOps float64
	why      string
}

var specs = []spec{
	{
		name: "lookup_big", kind: kindLookup, dictLog2: 24, vector: 1024, window: 4, pacedOps: 0.8e6,
		why: "2^24-key dictionary, per-shard table far beyond L2: drains are memory stalls in native cursors under coro, so interleaving, group size and prefetch depth show here; serve admission is a small share",
	},
	{
		name: "lookup_small", kind: kindLookup, dictLog2: 16, vector: 1024, window: 4, pacedOps: 1.4e6,
		why: "same calls and key law on 2^16 keys, L2-resident per shard: no stalls to hide, so partitioning, queueing, futures and switch cost dominate; kernel work must leave it unmoved; net_lookup's baseline",
	},
	{
		name: "join_probe", kind: kindJoin, dictLog2: 22, buildLog2: 22, vector: 1024, window: 4, pacedOps: 0.5e6,
		why: "JoinBatch with Matches() on 2^22 keys and 2^22 build tuples with Zipf(1.2) multiplicities: dictionary search piped into divergent hash-chain walks, the paper's second index type, own optimal group",
	},
	{
		name: "mixed_rw", kind: kindMixed, dictLog2: 20, vector: 256, window: 2, pacedOps: 0.4e6,
		why: "256-op transactions of point futures (80% Go, 15% Insert, 5% Delete, hotspot 80/20, 2^20 keys): batcher, delta probe, generations, epoch merges; a read-path gain that costs the write path shows",
	},
	{
		name: "net_lookup", kind: kindLookup, net: true, dictLog2: 16, vector: 1024, window: 4, pacedOps: 1.4e6,
		why: "lookup_small's service, key law and paced rate through wire.Server and client.Remote over loopback: encode, socket, decode, respond, realign; minus lookup_small it is the cost of the wire",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// tiny shrinks a workload to a domain that builds in milliseconds, for the
// smoke test; names, calls and key laws are unchanged.
func (s spec) tiny() spec {
	s.dictLog2 = min(s.dictLog2, 12)
	s.buildLog2 = min(s.buildLog2, 12)
	return s
}

// How one run's measured seconds (the -seconds argument) are spent. An
// end-to-end run divides them equally over loadInstances services, each
// warmed up, then closed, then paced; a traced run is one service: warm-up,
// a closed phase of alternating untraced and traced segments, traced paced
// (and before them, on net_lookup, the in-process baseline).
const (
	loadInstances = 3
	closedShare   = 1.0 / 3 // of an instance's seconds: closed phase
	pacedShare    = 2.0 / 3 // of an instance's seconds: paced phase
	// warmupShare more runs closed-loop and unmeasured first: caches fill,
	// the group controller settles, and on mixed_rw tens of epoch rebuilds
	// complete.
	warmupShare = 1.0 / 4
	warmupMax   = 2 * time.Second

	tracedWarmup     = 1.0 / 6
	refShare         = 1.0 / 4 // net_lookup: each of wire and in-process baseline
	tracedClosedPart = 1.0 / 4 // each of untraced and traced closed segments
	tracedPacedPart  = 1.0 / 2

	// A closed phase is run as drained segments of closedSegment each with
	// an idle segmentGap before it, and its metrics are taken per segment
	// and reduced by quiet(); so is the paced phase's p99, over windows of
	// pacedWindow.
	closedSegment = 250 * time.Millisecond
	segmentGap    = 10 * time.Millisecond
	pacedWindow   = 250 * time.Millisecond
	// pacedMaxInflight bounds requests a client keeps outstanding in the
	// paced phase; past it the generator waits (and reports the lateness).
	pacedMaxInflight = 8

	// setup_s is the median over every build of the run: the loadInstances
	// loaded ones (fewer once setupBudget is spent, so that the slowest
	// set-up still fits the run cap), then unloaded repeats while less than
	// setupEnough has gone into building, up to setupRepsMax in all.
	setupRepsMax = 25
	setupEnough  = time.Second
	setupBudget  = 10 * time.Second

	sampleEvery    = 100 * time.Millisecond
	defaultSeconds = 15.0
	// defaultProbe is the time each single-layer probe measures for.
	defaultProbe = 150 * time.Millisecond
)

// metricDef names one metric. bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics carry none.
type metricDef struct {
	name, unit   string
	higherBetter bool
	bound        float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"tput_kops", "kops/s", true, 0.25},
	{"closed_p50_us", "us", false, 0.25},
	{"paced_p50_us", "us", false, 0.25},
	{"cpu_ns_per_op", "ns", false, 0.25},
	{"rss_peak_mb", "MB", false, 0.25},
}

var perLayer = []metricDef{
	{name: "coro.resume_ns", unit: "ns"},

	{name: "native.seq_ns_per_key", unit: "ns"},
	{name: "native.coro_g1_ns_per_key", unit: "ns"},
	{name: "native.coro_g6_ns_per_key", unit: "ns"},
	{name: "native.coro_g16_ns_per_key", unit: "ns"},
	{name: "native.interleave_gain", unit: "ratio", higherBetter: true},
	{name: "native.merge_ns_per_entry", unit: "ns"},

	{name: "nativejoin.seq_ns_per_probe", unit: "ns"},
	{name: "nativejoin.coro_g6_ns_per_probe", unit: "ns"},
	{name: "nativejoin.coro_g16_ns_per_probe", unit: "ns"},
	{name: "nativejoin.interleave_gain", unit: "ratio", higherBetter: true},

	{name: "serve.submit_p50_us", unit: "us"},
	{name: "serve.submit_p99_us", unit: "us"},
	{name: "serve.wait_p50_us", unit: "us"},
	{name: "serve.kernel_ns_per_key", unit: "ns"},
	{name: "serve.kernel_busy_frac", unit: "ratio"},
	{name: "serve.mlp_achieved", unit: "ratio", higherBetter: true},
	{name: "serve.kernel_overhead", unit: "ratio"},
	{name: "serve.avg_batch", unit: "count", higherBetter: true},
	{name: "serve.group_final", unit: "count"},
	{name: "serve.lookup_p50_us", unit: "us"},
	{name: "serve.join_p50_us", unit: "us"},
	{name: "serve.write_p50_us", unit: "us"},
	{name: "serve.join_hits_per_probe", unit: "ratio"},
	{name: "serve.write_ns_per_op", unit: "ns"},
	{name: "serve.rebuilds_per_s", unit: "1/s"},
	{name: "serve.rebuild_pause_max_us", unit: "us"},
	{name: "serve.frozen_gens_max", unit: "count"},
	{name: "serve.delta_len_max", unit: "count"},
	{name: "serve.write_stalls", unit: "count"},
	{name: "serve.dropped", unit: "count"},

	{name: "wire.enc_keys_ns_per_key", unit: "ns"},
	{name: "wire.dec_keys_ns_per_key", unit: "ns"},
	{name: "wire.enc_results_ns_per_key", unit: "ns"},
	{name: "wire.dec_results_ns_per_key", unit: "ns"},
	{name: "wire.codec_allocs_per_frame", unit: "count"},
	{name: "wire.net_overhead_us", unit: "us"},
	{name: "wire.net_tput_ratio", unit: "ratio", higherBetter: true},

	{name: "client.submit_p50_us", unit: "us"},
	{name: "client.wait_p50_us", unit: "us"},
	{name: "client.bytes_out_per_key", unit: "B"},
	{name: "client.bytes_in_per_key", unit: "B"},
	{name: "client.frames_out_per_req", unit: "ratio"},
	{name: "client.frames_in_per_req", unit: "ratio"},
	{name: "client.shed", unit: "count"},

	{name: "obs.hist_observe_ns", unit: "ns"},
	{name: "obs.span_record_ns", unit: "ns"},

	{name: "workload.gen_ns_per_key", unit: "ns"},
	{name: "workload.gen_frac", unit: "ratio"},
	{name: "workload.late_frac", unit: "ratio"},
	{name: "workload.late_p99_us", unit: "us"},
	{name: "workload.paced_p99_us", unit: "us"},

	{name: "proc.allocs_per_op", unit: "count"},
	{name: "proc.alloc_bytes_per_op", unit: "B"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_total_ms", unit: "ms"},
	{name: "proc.goroutines_max", unit: "count"},

	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "trace.spans", unit: "count", higherBetter: true},
}
