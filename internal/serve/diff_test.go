package serve

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"
)

// This file is the differential harness: the same seeded randomized op
// stream — lookups, range scans, joins, inserts, deletes, and
// cancellations — replayed against the service and a plain
// map[uint64]uint32 oracle, asserting identical results per future and
// identical ordered range results. The oracle shares nothing with the
// service but the serve API, and a tiny rebuild threshold keeps the
// delta/epoch machinery churning, so any divergence in write visibility,
// tombstone handling, epoch merges, range-scan ordering, or cancellation
// accounting shows up as a disagreement with a trivially correct
// reference.

// diffOp is one replayed operation. cancel submits it under an already-
// cancelled context: the service must drop it without applying it.
// For kind OpRange, key is the lower bound and hi/limit complete the
// query.
type diffOp struct {
	kind   OpKind
	key    uint64
	val    uint32
	hi     uint64
	limit  int
	cancel bool
}

// genStream draws a seeded op stream over keys in [0, keySpace): ~45%
// lookups, ~12% range scans (a third of them limited), ~18% inserts,
// ~15% deletes, ~10% cancelled ops (split between reads, ranges, and
// writes). Key reuse is high by construction so upserts, re-inserts,
// and delete-then-lookup sequences occur constantly.
func genStream(seed uint64, n int, keySpace uint64) []diffOp {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef12345))
	mkRange := func(op *diffOp) {
		op.kind = OpRange
		op.hi = op.key + rng.Uint64N(keySpace/4)
		if rng.Uint64N(3) == 0 {
			op.limit = 1 + int(rng.Uint64N(8))
		}
	}
	ops := make([]diffOp, n)
	for i := range ops {
		op := diffOp{key: rng.Uint64N(keySpace)}
		switch p := rng.Uint64N(100); {
		case p < 45:
			op.kind = OpLookup
		case p < 57:
			mkRange(&op)
		case p < 75:
			op.kind = OpInsert
			op.val = rng.Uint32N(1 << 30)
		case p < 90:
			op.kind = OpDelete
		default:
			op.cancel = true
			switch {
			case p < 94:
				op.kind = OpLookup
			case p < 97:
				mkRange(&op)
			default:
				op.kind = OpInsert
				op.val = rng.Uint32N(1 << 30)
			}
		}
		ops[i] = op
	}
	return ops
}

// replayCfg tunes one differential replay: the rebuild threshold (small
// values force delta refills while merges are in flight), and snapEvery routes every Nth clean read through the
// snapshot-pinned At-variants (0 = all latest). The replay is
// sequential, so a read pinned at admission must agree with a latest
// read — and with the oracle — exactly; any divergence is a visibility
// bug in the pinned path (retained-ring walk, absorbed replay, or the
// view's horizon filter).
type replayCfg struct {
	threshold int
	snapEvery int
}

// replayService runs the stream sequentially (submit, wait, record)
// against a service and returns the per-op results, the ordered
// entries of every range op (nil for dropped ranges, keyed by stream
// index), a final vectorized sweep of the whole key space through
// GoBatch, and a final ordered full-domain range sweep.
func replayService(t *testing.T, domain []uint64, stream []diffOp, keySpace uint64, cfg replayCfg) (perOp []Result, perRange [][]RangeEntry, sweep map[uint64]Result, ordered []RangeEntry) {
	t.Helper()
	s, err := New(domain,
		WithShards(3),
		WithAdmission(1),
		WithRebuildThreshold(cfg.threshold))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	perOp = make([]Result, len(stream))
	perRange = make([][]RangeEntry, len(stream))
	for i, op := range stream {
		octx := ctx
		if op.cancel {
			octx = cancelled
		}
		snapRead := cfg.snapEvery > 0 && !op.cancel && i%cfg.snapEvery == 0
		if op.kind == OpRange {
			var rf *RangeFuture
			if snapRead {
				rf = s.RangeBatchAt(octx, []Op{RangeOp(op.key, op.hi, op.limit)}, nil)
			} else {
				rf = s.Range(octx, op.key, op.hi, op.limit)
			}
			if rf.Dropped() {
				perOp[i] = Result{Code: NotFound, Dropped: true}
			} else {
				perRange[i] = rf.Collect(0)
				perOp[i] = Result{Code: uint32(len(perRange[i])), Found: true}
			}
			continue
		}
		if snapRead && op.kind == OpLookup {
			perOp[i] = s.GoBatchAt(octx, []uint64{op.key}, nil).Wait()[0]
			continue
		}
		perOp[i] = s.Submit(octx, Op{Kind: op.kind, Key: op.key, Val: op.val}).Wait()
	}
	keys := make([]uint64, keySpace)
	for i := range keys {
		keys[i] = uint64(i)
	}
	bf := s.GoBatch(ctx, keys)
	res := bf.Wait()
	sweep = make(map[uint64]Result, keySpace)
	for i, k := range bf.Keys() {
		sweep[k] = res[i]
	}
	ordered = s.Range(ctx, 0, ^uint64(0), 0).Collect(0)
	if st := awaitRebuild(t, s); st.WriteStalls != 0 {
		t.Fatalf("differential replay found an unfinished merge at %d freezes", st.WriteStalls)
	}
	return perOp, perRange, sweep, ordered
}

// replayOracle runs the stream against the map oracle.
func replayOracle(domain []uint64, stream []diffOp, keySpace uint64) (perOp []Result, perRange [][]RangeEntry, sweep map[uint64]Result, ordered []RangeEntry) {
	m := make(map[uint64]uint32, len(domain))
	for code, v := range domain {
		m[v] = uint32(code)
	}
	perOp = make([]Result, len(stream))
	perRange = make([][]RangeEntry, len(stream))
	for i, op := range stream {
		if op.cancel {
			perOp[i] = Result{Code: NotFound, Dropped: true}
			continue
		}
		switch op.kind {
		case OpLookup:
			if v, ok := m[op.key]; ok {
				perOp[i] = Result{Code: v, Found: true}
			} else {
				perOp[i] = Result{Code: NotFound}
			}
		case OpRange:
			perRange[i] = sortedRange(m, op.key, op.hi, op.limit)
			perOp[i] = Result{Code: uint32(len(perRange[i])), Found: true}
		case OpInsert:
			m[op.key] = op.val
			perOp[i] = Result{Code: op.val, Found: true}
		case OpDelete:
			delete(m, op.key)
			perOp[i] = Result{Code: NotFound}
		}
	}
	sweep = make(map[uint64]Result, keySpace)
	for k := uint64(0); k < keySpace; k++ {
		if v, ok := m[k]; ok {
			sweep[k] = Result{Code: v, Found: true}
		} else {
			sweep[k] = Result{Code: NotFound}
		}
	}
	ordered = sortedRange(m, 0, ^uint64(0), 0)
	return perOp, perRange, sweep, ordered
}

// diffVsOracle replays stream against a service and the oracle and
// fails on the first divergence: a per-future result, a range's ordered
// entries, the final point sweep, or the final ordered range sweep.
func diffVsOracle(t *testing.T, seed uint64, domain []uint64, stream []diffOp, keySpace uint64, cfg replayCfg) {
	t.Helper()
	wantOps, wantRanges, wantSweep, wantOrdered := replayOracle(domain, stream, keySpace)
	gotOps, gotRanges, gotSweep, gotOrdered := replayService(t, domain, stream, keySpace, cfg)
	for i := range stream {
		if gotOps[i] != wantOps[i] {
			t.Fatalf("seed %d op %d (%+v): got %+v, oracle %+v",
				seed, i, stream[i], gotOps[i], wantOps[i])
		}
		if !slices.Equal(gotRanges[i], wantRanges[i]) {
			t.Fatalf("seed %d op %d: range [%d,%d] limit %d: got %v, oracle %v",
				seed, i, stream[i].key, stream[i].hi, stream[i].limit,
				gotRanges[i], wantRanges[i])
		}
	}
	for k, want := range wantSweep {
		if gotSweep[k] != want {
			t.Fatalf("seed %d sweep key %d: got %+v, oracle %+v", seed, k, gotSweep[k], want)
		}
	}
	if !slices.Equal(gotOrdered, wantOrdered) {
		t.Fatalf("seed %d: ordered full-range sweep diverged (%d entries vs %d)",
			seed, len(gotOrdered), len(wantOrdered))
	}
}

// TestDifferentialBackendsVsOracle is the harness proper. In -short it
// replays 2 seeds × 700 ops; without -short it goes deeper (4 seeds ×
// 1500 ops). Streams include OpRange, so the harness asserts identical
// *ordered* range results (per query and on a final full-domain ordered
// sweep) across epoch churn, next to the per-future point results.
func TestDifferentialBackendsVsOracle(t *testing.T) {
	seeds, nOps := []uint64{1, 2}, 700
	if !testing.Short() {
		seeds, nOps = []uint64{1, 2, 3, 4}, 1500
	}
	const keySpace = 400
	// Domain: every third key in the lower half of the key space, so the
	// stream hits present keys, absent-in-range keys, and fresh inserts.
	var domain []uint64
	for k := uint64(0); k < keySpace/2; k += 3 {
		domain = append(domain, k)
	}
	for _, seed := range seeds {
		diffVsOracle(t, seed, domain, genStream(seed, nOps, keySpace), keySpace, replayCfg{threshold: 16, snapEvery: 4})
	}
}

// genBurstStream is genStream with write bursts spliced in: every ~25
// ops, a run of 12-20 consecutive inserts/deletes over a narrow key
// window. With a tiny rebuild threshold each burst refills the delta
// several times in a row, so freeze after freeze lands while the
// previous merge has only its per-write steps to finish in.
func genBurstStream(seed uint64, n int, keySpace uint64) []diffOp {
	rng := rand.New(rand.NewPCG(seed^0x5eed, seed*2654435761))
	base := genStream(seed, n, keySpace)
	var ops []diffOp
	for i, op := range base {
		ops = append(ops, op)
		if i%25 != 24 {
			continue
		}
		lo := rng.Uint64N(keySpace)
		for b := 12 + rng.Uint64N(9); b > 0; b-- {
			burst := diffOp{key: lo + rng.Uint64N(20)}
			if rng.Uint64N(4) == 0 {
				burst.kind = OpDelete
			} else {
				burst.kind = OpInsert
				burst.val = rng.Uint32N(1 << 30)
			}
			ops = append(ops, burst)
		}
	}
	return ops
}

// TestDifferentialRefillPressureVsOracle replays write-burst streams
// with a rebuild threshold of 4, forcing delta refills during every
// rebuild (a merge in flight at nearly every write), with every other
// clean read routed through the snapshot-pinned paths. The service must
// agree with the oracle op for op — and never count a write stall: the
// per-write merge step ends every merge before the next freeze, on any
// schedule.
func TestDifferentialRefillPressureVsOracle(t *testing.T) {
	seeds := []uint64{11, 12}
	nOps := 500
	if testing.Short() {
		seeds, nOps = []uint64{11}, 300
	}
	const keySpace = 200
	var domain []uint64
	for k := uint64(0); k < keySpace/2; k += 3 {
		domain = append(domain, k)
	}
	for _, seed := range seeds {
		diffVsOracle(t, seed, domain, genBurstStream(seed, nOps, keySpace), keySpace, replayCfg{threshold: 4, snapEvery: 2})
	}
}

// TestDifferentialJoinVsOracle replays a mixed lookup/join/write stream
// on a join service against an oracle that models the documented write/join contract exactly: the
// build side is immutable, keyed by epoch-0 codes, and partitioned by
// build-key hash, so a probe matches its resolved code's tuples in its
// own shard's partition.
func TestDifferentialJoinVsOracle(t *testing.T) {
	const (
		shards   = 3
		keySpace = 300
		domainN  = 100
	)
	seeds, nOps := []uint64{5, 6}, 600
	if !testing.Short() {
		seeds, nOps = []uint64{5, 6, 7, 8}, 1200
	}
	domain := testDomain(domainN, 2) // codes: key 2i → i
	// Build side: skewed multiplicities over the domain.
	brng := rand.New(rand.NewPCG(77, 78))
	var build []BuildTuple
	for i := 0; i < 500; i++ {
		k := uint64(brng.Uint64N(domainN)) * 2
		build = append(build, BuildTuple{Key: k, Payload: brng.Uint32N(1000)})
	}
	// Oracle model: per-shard aggregate per code.
	type agg struct {
		hits uint32
		sum  uint64
	}
	byShardCode := make([]map[uint32]agg, shards)
	for i := range byShardCode {
		byShardCode[i] = map[uint32]agg{}
	}
	for _, bt := range build {
		code := uint32(bt.Key / 2)
		sh := shardOf(bt.Key, shards)
		a := byShardCode[sh][code]
		a.hits++
		a.sum += uint64(bt.Payload)
		byShardCode[sh][code] = a
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewPCG(seed, seed*31+7))
		s, err := New(domain, WithShards(shards),
			WithAdmission(1),
			WithRebuildThreshold(16), WithBuild(build))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		m := make(map[uint64]uint32, domainN)
		for code, v := range domain {
			m[v] = uint32(code)
		}
		for i := 0; i < nOps; i++ {
			key := rng.Uint64N(keySpace)
			switch p := rng.Uint64N(100); {
			case p < 40: // join probe
				got := s.Join(ctx, key)
				var want JoinResult
				if code, ok := m[key]; ok {
					a := byShardCode[shardOf(key, shards)][code]
					want = JoinResult{Code: code, Hits: a.hits, Agg: a.sum}
				} else {
					want = JoinResult{Code: NotFound}
				}
				if got != want {
					t.Fatalf("seed %d op %d: join(%d) = %+v, oracle %+v", seed, i, key, got, want)
				}
			case p < 60: // lookup
				got := s.Lookup(ctx, key)
				want := Result{Code: NotFound}
				if code, ok := m[key]; ok {
					want = Result{Code: code, Found: true}
				}
				if got != want {
					t.Fatalf("seed %d op %d: lookup(%d) = %+v, oracle %+v", seed, i, key, got, want)
				}
			case p < 85: // insert: bias toward re-mapping onto live codes
				val := rng.Uint32N(domainN)
				s.Insert(ctx, key, val).Wait()
				m[key] = val
			default: // delete
				s.Delete(ctx, key).Wait()
				delete(m, key)
			}
		}
		awaitRebuild(t, s)
		s.Close()
	}
}
