package wire_test

// Loopback end-to-end tests: a real wire.Server over a real TCP
// listener, driven through the client package's Remote — the full
// encode → frame → decode → admit → serve → stream → decode path in
// one process. The anchor is the differential test: the same seeded op
// stream replayed through an in-process serve.Service and through the
// network stack against an identically-built service must produce
// bit-identical results, so the protocol, the server's column admission
// and record encoding, and the client's coalescer cannot silently
// reorder, drop, or mangle anything.

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// testService builds the canonical small test service: 3 shards, tiny
// admission bounds, a skewed build side over an even-key domain; extra
// options apply last.
func testService(t *testing.T, o *obs.Observer, extra ...serve.Option) *serve.Service {
	t.Helper()
	const domainN = 256
	domain := make([]uint64, domainN)
	for i := range domain {
		domain[i] = uint64(i) * 2
	}
	brng := rand.New(rand.NewPCG(77, 78))
	var build []serve.BuildTuple
	for i := 0; i < 400; i++ {
		build = append(build, serve.BuildTuple{
			Key:     uint64(brng.Uint64N(domainN)) * 2,
			Payload: brng.Uint32N(1000),
		})
	}
	opts := []serve.Option{
		serve.WithShards(3),
		serve.WithAdmission(8),
		serve.WithRebuildThreshold(16),
		serve.WithBuild(build),
	}
	if o != nil {
		opts = append(opts, serve.WithObserver(o))
	}
	s, err := serve.New(domain, append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startServer wraps svc in a wire server on a loopback listener and
// returns the dial address. Cleanup closes the server but not svc.
func startServer(t testing.TB, svc *serve.Service, cfg wire.Config) string {
	t.Helper()
	srv := wire.NewServer(svc, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// e2eOp is one op of the differential stream.
type e2eOp struct {
	kind   serve.OpKind
	key    uint64
	val    uint32
	hi     uint64
	limit  int
	cancel bool
}

// genE2EStream mirrors the serve diff harness mix (lookups, joins,
// ranges, writes, pre-cancelled ops) over a key space that includes
// misses and fresh keys.
func genE2EStream(seed uint64, n int) []e2eOp {
	const keySpace = 700
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	ops := make([]e2eOp, n)
	for i := range ops {
		op := e2eOp{key: rng.Uint64N(keySpace)}
		switch p := rng.Uint64N(100); {
		case p < 35:
			op.kind = serve.OpLookup
		case p < 55:
			op.kind = serve.OpJoin
		case p < 65:
			op.kind = serve.OpRange
			op.hi = op.key + rng.Uint64N(keySpace/4)
			if rng.Uint64N(3) == 0 {
				op.limit = 1 + int(rng.Uint64N(8))
			}
		case p < 80:
			op.kind = serve.OpInsert
			op.val = rng.Uint32N(1 << 30)
		case p < 92:
			op.kind = serve.OpDelete
		default:
			op.cancel = true
			if p < 96 {
				op.kind = serve.OpLookup
			} else {
				op.kind = serve.OpJoin
			}
		}
		ops[i] = op
	}
	return ops
}

// replayFns runs the stream sequentially and records every outcome. The
// futures differ in type between the two bindings, so the replay takes
// closures.
type replayFns struct {
	point func(ctx context.Context, op serve.Op) serve.Result
	join  func(ctx context.Context, key uint64) serve.JoinResult
	rng   func(ctx context.Context, lo, hi uint64, limit int) []serve.RangeEntry
}

func replayStream(stream []e2eOp, fns replayFns) (perOp []serve.Result, perJoin []serve.JoinResult, perRange [][]serve.RangeEntry) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	perOp = make([]serve.Result, len(stream))
	perJoin = make([]serve.JoinResult, len(stream))
	perRange = make([][]serve.RangeEntry, len(stream))
	for i, op := range stream {
		octx := ctx
		if op.cancel {
			octx = cancelled
		}
		switch op.kind {
		case serve.OpJoin:
			perJoin[i] = fns.join(octx, op.key)
		case serve.OpRange:
			perRange[i] = fns.rng(octx, op.key, op.hi, op.limit)
		default:
			perOp[i] = fns.point(octx, serve.Op{Kind: op.kind, Key: op.key, Val: op.val})
		}
	}
	return
}

// TestLoopbackDifferential is the e2e anchor: the same seeded stream
// through an in-process service and through TCP against a twin service
// must agree exactly — point results, join results, and ordered range
// entries. The second seed runs both bindings in snapshot-read mode, so
// every coalesced op frame and range frame flies pinned.
func TestLoopbackDifferential(t *testing.T) {
	nOps := 500
	if testing.Short() {
		nOps = 250
	}
	for _, seed := range []uint64{11, 12} {
		stream := genE2EStream(seed, nOps)
		snapshot := seed == 12

		local := testService(t, nil, serve.WithSnapshotReads(snapshot))
		wantOps, wantJoins, wantRanges := replayStream(stream, replayFns{
			point: func(ctx context.Context, op serve.Op) serve.Result {
				return local.Submit(ctx, op).Wait()
			},
			join: func(ctx context.Context, key uint64) serve.JoinResult {
				return local.Join(ctx, key)
			},
			rng: func(ctx context.Context, lo, hi uint64, limit int) []serve.RangeEntry {
				rf := local.Range(ctx, lo, hi, limit)
				if rf.Dropped() {
					return nil
				}
				return rf.Collect(0)
			},
		})
		local.Close()

		remoteSvc := testService(t, nil)
		defer remoteSvc.Close()
		addr := startServer(t, remoteSvc, wire.Config{ChunkSize: 3})
		rm, err := client.Dial(addr, client.WithCoalesce(6), client.WithSnapshotReads(snapshot))
		if err != nil {
			t.Fatal(err)
		}
		defer rm.Close()
		gotOps, gotJoins, gotRanges := replayStream(stream, replayFns{
			point: func(ctx context.Context, op serve.Op) serve.Result {
				return rm.Submit(ctx, op).Wait()
			},
			join: func(ctx context.Context, key uint64) serve.JoinResult {
				return rm.Join(ctx, key)
			},
			rng: func(ctx context.Context, lo, hi uint64, limit int) []serve.RangeEntry {
				rf := rm.Range(ctx, lo, hi, limit)
				rf.Wait()
				if rf.Dropped() {
					return nil
				}
				return rf.Collect(0)
			},
		})

		for i, op := range stream {
			if gotOps[i] != wantOps[i] {
				t.Fatalf("seed %d (snapshot %v) op %d (%+v): remote %+v, local %+v", seed, snapshot, i, op, gotOps[i], wantOps[i])
			}
			if gotJoins[i] != wantJoins[i] {
				t.Fatalf("seed %d op %d (%+v): remote join %+v, local %+v", seed, i, op, gotJoins[i], wantJoins[i])
			}
			if !slices.Equal(gotRanges[i], wantRanges[i]) {
				t.Fatalf("seed %d op %d: range [%d,%d] limit %d: remote %v, local %v",
					seed, i, op.key, op.hi, op.limit, gotRanges[i], wantRanges[i])
			}
		}
	}
}

// TestLoopbackWideKeys: keys past 32 bits work end to end, in process
// and over loopback — a domain holding 1<<40 and MaxUint64-1, and an
// insert of 1<<33 that is looked up, range-scanned, deleted, and looked
// up again. A rebuild threshold of 1 merges every write into the next
// epoch, so the wide keys cross the epoch merge as well as the delta.
func TestLoopbackWideKeys(t *testing.T) {
	const wide = uint64(1) << 33
	top := uint64(math.MaxUint64 - 1)
	domain := []uint64{top, 1 << 40, 7} // codes: 7 → 0, 1<<40 → 1, top → 2
	steps := []struct {
		op        e2eOp
		want      serve.Result
		wantRange []serve.RangeEntry
	}{
		{op: e2eOp{kind: serve.OpLookup, key: 1 << 40}, want: serve.Result{Code: 1, Found: true}},
		{op: e2eOp{kind: serve.OpLookup, key: top}, want: serve.Result{Code: 2, Found: true}},
		{op: e2eOp{kind: serve.OpLookup, key: math.MaxUint64}, want: serve.Result{Code: serve.NotFound}},
		{op: e2eOp{kind: serve.OpInsert, key: wide, val: 9}, want: serve.Result{Code: 9, Found: true}},
		{op: e2eOp{kind: serve.OpLookup, key: wide}, want: serve.Result{Code: 9, Found: true}},
		{op: e2eOp{kind: serve.OpRange, key: 1 << 32, hi: math.MaxUint64},
			wantRange: []serve.RangeEntry{{Key: wide, Code: 9}, {Key: 1 << 40, Code: 1}, {Key: top, Code: 2}}},
		{op: e2eOp{kind: serve.OpDelete, key: wide}, want: serve.Result{Code: serve.NotFound}},
		{op: e2eOp{kind: serve.OpLookup, key: wide}, want: serve.Result{Code: serve.NotFound}},
		{op: e2eOp{kind: serve.OpRange, key: 1 << 32, hi: 1 << 41},
			wantRange: []serve.RangeEntry{{Key: 1 << 40, Code: 1}}},
	}
	stream := make([]e2eOp, len(steps))
	for i, st := range steps {
		stream[i] = st.op
	}
	newService := func() *serve.Service {
		s, err := serve.New(domain, serve.WithShards(3),
			serve.WithAdmission(1), serve.WithRebuildThreshold(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	check := func(binding string, perOp []serve.Result, perRange [][]serve.RangeEntry) {
		t.Helper()
		for i, st := range steps {
			if st.op.kind == serve.OpRange {
				if !slices.Equal(perRange[i], st.wantRange) {
					t.Fatalf("%s step %d: range [%d,%d] = %v, want %v", binding, i, st.op.key, st.op.hi, perRange[i], st.wantRange)
				}
			} else if perOp[i] != st.want {
				t.Fatalf("%s step %d (%+v): %+v, want %+v", binding, i, st.op, perOp[i], st.want)
			}
		}
	}

	local := newService()
	perOp, _, perRange := replayStream(stream, replayFns{
		point: func(ctx context.Context, op serve.Op) serve.Result { return local.Submit(ctx, op).Wait() },
		rng: func(ctx context.Context, lo, hi uint64, limit int) []serve.RangeEntry {
			return local.Range(ctx, lo, hi, limit).Collect(0)
		},
	})
	check("in-process", perOp, perRange)

	rm, err := client.Dial(startServer(t, newService(), wire.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	perOp, _, perRange = replayStream(stream, replayFns{
		point: func(ctx context.Context, op serve.Op) serve.Result { return rm.Submit(ctx, op).Wait() },
		rng: func(ctx context.Context, lo, hi uint64, limit int) []serve.RangeEntry {
			return rm.Range(ctx, lo, hi, limit).Collect(0)
		},
	})
	check("loopback", perOp, perRange)
}

// TestLoopbackVectorDifferential compares the vectorized surfaces:
// GoBatch (with duplicate keys), JoinBatch with match streaming, and a
// multi-range RangeBatch.
func TestLoopbackVectorDifferential(t *testing.T) {
	local := testService(t, nil)
	defer local.Close()
	remoteSvc := testService(t, nil)
	defer remoteSvc.Close()
	addr := startServer(t, remoteSvc, wire.Config{ChunkSize: 5})
	rm, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewPCG(21, 22))
	keys := make([]uint64, 300)
	uniq := map[uint64]bool{}
	for i := range keys {
		keys[i] = rng.Uint64N(600)
		uniq[keys[i]] = true
	}
	if len(uniq) == len(keys) {
		t.Fatal("stream has no duplicate keys; the duplicate positions are untested")
	}

	// Both bindings answer in submission order, so every result, join
	// aggregate and match stream compares by position: a duplicate key
	// whose result or matches land at another occurrence fails here.
	lbf := local.GoBatch(ctx, slices.Clone(keys))
	rbf := rm.GoBatch(ctx, slices.Clone(keys))
	want, got := lbf.Wait(), rbf.Wait()
	if !slices.Equal(lbf.Keys(), keys) || !slices.Equal(rbf.Keys(), keys) || len(want) != len(keys) || len(got) != len(keys) {
		t.Fatalf("GoBatch: keys or result columns differ from the submission")
	}
	for i, k := range keys {
		if got[i] != want[i] {
			t.Fatalf("GoBatch position %d key %d: remote %+v, local %+v", i, k, got[i], want[i])
		}
	}

	// JoinBatch: per-position aggregates, and per-position match sets.
	// The stream interleaves probes differently on the two bindings (shard
	// completion and chunking order), so each position's matches are
	// sorted before comparing.
	type match struct {
		Key           uint64
		Code, Payload uint32
	}
	collect := func(ms func(yield func(serve.Match) bool)) [][]match {
		out := make([][]match, len(keys))
		ms(func(m serve.Match) bool {
			if m.Probe < 0 || m.Probe >= len(keys) || keys[m.Probe] != m.Key {
				t.Fatalf("JoinBatch match %+v does not point at a position holding its key", m)
			}
			out[m.Probe] = append(out[m.Probe], match{m.Key, m.Code, m.Payload})
			return true
		})
		for _, ms := range out {
			slices.SortFunc(ms, func(a, b match) int { return int(a.Payload) - int(b.Payload) })
		}
		return out
	}
	ljf := local.JoinBatch(ctx, slices.Clone(keys))
	rjf := rm.JoinBatch(ctx, slices.Clone(keys))
	wantJ, gotJ := ljf.WaitJoin(), rjf.WaitJoin()
	wantM := collect(func(y func(serve.Match) bool) { ljf.Matches()(y) })
	gotM := collect(func(y func(serve.Match) bool) { rjf.Matches()(y) })
	if len(wantJ) != len(keys) || len(gotJ) != len(keys) {
		t.Fatalf("JoinBatch: %d local and %d remote results for %d keys", len(wantJ), len(gotJ), len(keys))
	}
	for i, k := range keys {
		if gotJ[i] != wantJ[i] {
			t.Fatalf("JoinBatch position %d key %d: remote %+v, local %+v", i, k, gotJ[i], wantJ[i])
		}
		if !slices.Equal(gotM[i], wantM[i]) || uint32(len(wantM[i])) != wantJ[i].Hits {
			t.Fatalf("JoinBatch matches at position %d key %d: remote %v, local %v, hits %d", i, k, gotM[i], wantM[i], wantJ[i].Hits)
		}
	}

	// RangeBatch: ordered entries per range, in request order.
	ranges := []serve.Op{
		serve.RangeOp(0, 100, 0),
		serve.RangeOp(50, 50, 0),
		serve.RangeOp(400, 2000, 7),
		serve.RangeOp(3, 3, 0), // odd key: empty
	}
	lrf := local.RangeBatch(ctx, slices.Clone(ranges))
	lrf.Wait()
	rrf := rm.RangeBatch(ctx, slices.Clone(ranges))
	rrf.Wait()
	for r := range ranges {
		w, g := lrf.Collect(r), rrf.Collect(r)
		if !slices.Equal(w, g) {
			t.Fatalf("RangeBatch range %d: remote %v, local %v", r, g, w)
		}
	}
}

// TestLoopbackPositional is the submission-order check the key→result
// comparison above cannot make: result i must be the oracle's answer for
// submitted key i — duplicates included, each at its own position — and
// Keys()[i] the key submitted there. Frame sizes run from one key past
// one socket read, in both read modes (plain and pinned key columns).
func TestLoopbackPositional(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	addr := startServer(t, svc, wire.Config{})
	ctx := context.Background()
	for _, snapshot := range []bool{false, true} {
		rm, err := client.Dial(addr, client.WithSnapshotReads(snapshot))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(31, 32))
		for _, n := range []int{1, 63, 64, 1024, 5000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64N(40) * 13 // 40 distinct keys, hits and misses, across all shards
			}
			bf := rm.GoBatch(ctx, slices.Clone(keys))
			res := bf.Wait()
			if err := bf.Err(); err != nil || len(res) != n || !slices.Equal(bf.Keys(), keys) {
				t.Fatalf("snapshot=%v n=%d: err %v, %d results, keys reordered %v", snapshot, n, err, len(res), !slices.Equal(bf.Keys(), keys))
			}
			for i, k := range keys {
				// testService's domain is the even keys below 512, code = rank.
				want := serve.Result{Code: serve.NotFound}
				if k%2 == 0 && k < 512 {
					want = serve.Result{Code: uint32(k / 2), Found: true}
				}
				if res[i] != want {
					t.Fatalf("snapshot=%v n=%d position %d key %d: %+v, want %+v", snapshot, n, i, k, res[i], want)
				}
			}
		}
		rm.Close()
	}
}

// TestLoopbackWriteFrameOrder: plain and atomic write frames, every key
// written many times per frame: after each frame completes every key
// reads the frame's last write to it, and ack i is op i's own.
func TestLoopbackWriteFrameOrder(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	addr := startServer(t, svc, wire.Config{})
	rm, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(41, 42))
	want := map[uint64]serve.Result{}
	for round := 0; round < 40; round++ {
		n := []int{64, 200}[round%2]
		ops := make([]serve.Op, n)
		for i := range ops {
			k := 600 + rng.Uint64N(6) // outside the domain, across all shards
			if rng.Uint32N(4) == 0 {
				ops[i] = serve.Op{Kind: serve.OpDelete, Key: k}
				want[k] = serve.Result{Code: serve.NotFound}
			} else {
				v := uint32(round*1000 + i)
				ops[i] = serve.Op{Kind: serve.OpInsert, Key: k, Val: v}
				want[k] = serve.Result{Code: v, Found: true}
			}
		}
		atomic := round%4 >= 2
		var bf *client.BatchFuture
		if atomic {
			bf = rm.ApplyBatchAtomic(ctx, ops)
		} else {
			bf = rm.ApplyBatch(ctx, ops)
		}
		res := bf.Wait()
		if err := bf.Err(); err != nil || len(res) != n {
			t.Fatalf("round %d: err %v, %d acks for %d ops", round, err, len(res), n)
		}
		probe := make([]uint64, 0, len(want))
		for k := range want {
			probe = append(probe, k)
		}
		got := rm.GoBatch(ctx, probe).Wait()
		for i, k := range probe {
			if got[i] != want[k] {
				t.Fatalf("round %d (n=%d atomic=%v): key %d reads %+v, want the last write %+v", round, n, atomic, k, got[i], want[k])
			}
		}
		for i, op := range ops {
			ack := serve.Result{Code: serve.NotFound}
			if op.Kind == serve.OpInsert {
				ack = serve.Result{Code: op.Val, Found: true}
			}
			if res[i] != ack {
				t.Fatalf("round %d: ack %d of %+v = %+v, want %+v", round, i, op, res[i], ack)
			}
		}
	}
}

// TestLoopbackJoinDuplicateProbes: every occurrence of a duplicated
// probe key keeps its own matches. Per wire position i the number of
// streamed matches with Probe == i equals WaitJoin()[i].Hits, each such
// match carries key i's key, Keys()[i] is the submitted key, and the
// aggregates agree with the in-process point join. (Pointing every match
// at its key's first occurrence gave position 3 both occurrences' matches
// and position 9 none while JoinRes[9].Hits said otherwise.)
func TestLoopbackJoinDuplicateProbes(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	addr := startServer(t, svc, wire.Config{ChunkSize: 7})
	rm, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()

	rng := rand.New(rand.NewPCG(41, 42))
	keys := make([]uint64, 400)
	for i := range keys {
		keys[i] = rng.Uint64N(30) * 6
	}
	bf := rm.JoinBatch(ctx, slices.Clone(keys))
	jres := bf.WaitJoin()
	if err := bf.Err(); err != nil || len(jres) != len(keys) || !slices.Equal(bf.Keys(), keys) {
		t.Fatalf("err %v, %d results, keys reordered %v", err, len(jres), !slices.Equal(bf.Keys(), keys))
	}
	perProbe := make([]uint32, len(keys))
	var total uint32
	for m := range bf.Matches() {
		if m.Probe < 0 || m.Probe >= len(keys) || m.Key != keys[m.Probe] {
			t.Fatalf("match %+v does not point at an occurrence of its key", m)
		}
		perProbe[m.Probe]++
		total++
	}
	if total == 0 {
		t.Fatal("no matches streamed; the build side misses every probe key")
	}
	want := map[uint64]serve.JoinResult{}
	for i, k := range keys {
		if perProbe[i] != jres[i].Hits {
			t.Fatalf("position %d (key %d): %d matches streamed, Hits %d", i, k, perProbe[i], jres[i].Hits)
		}
		if _, ok := want[k]; !ok {
			want[k] = svc.Join(ctx, k)
		}
		if jres[i] != want[k] {
			t.Fatalf("position %d (key %d): %+v, in-process %+v", i, k, jres[i], want[k])
		}
	}
}

// TestLookupFrameAllocs is the steady-state allocation guard of the
// vector lookup path, both ends of the loopback included: a frame costs
// a constant number of allocations — the call and its future, the
// service's BatchFuture and partition bounds, the two result columns —
// whatever its key count, because the key, index and payload buffers
// are recycled slots and encode scratch, not per-frame garbage.
func TestLookupFrameAllocs(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	addr := startServer(t, svc, wire.Config{})
	rm, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()
	allocsAt := func(n int) float64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i*7) % 600
		}
		for range 8 { // grow every slot, the frame reader and the encode scratch to n
			rm.GoBatch(ctx, keys).Wait()
		}
		return testing.AllocsPerRun(100, func() { rm.GoBatch(ctx, keys).Wait() })
	}
	const bound = 20 // 13 measured; the rest is scheduler and netpoll noise
	if small, large := allocsAt(256), allocsAt(4096); small > bound || large > bound {
		t.Fatalf("allocations per lookup frame: %v at 256 keys, %v at 4096, want at most %d at both", small, large, bound)
	}
}

// TestLoopbackRangeLimitWide: a range limit wider than the wire's 32
// bits is as good as unbounded on both bindings; it must not wrap to a
// small cap on the remote one.
func TestLoopbackRangeLimitWide(t *testing.T) {
	if math.MaxInt < 1<<32 {
		t.Skip("int cannot hold a limit wider than 32 bits")
	}
	svc := testService(t, nil)
	defer svc.Close()
	rm, err := client.Dial(startServer(t, svc, wire.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()
	wide := uint64(1)<<32 + 1
	ops := []serve.Op{serve.RangeOp(0, 100, int(wide)), serve.RangeOp(0, 100, int(wide-1)), serve.RangeOp(0, 100, 3)}
	lrf, rrf := svc.RangeBatch(ctx, ops), rm.RangeBatch(ctx, ops)
	lrf.Wait()
	rrf.Wait()
	for i, op := range ops {
		want, got := lrf.Collect(i), rrf.Collect(i)
		if wantN := min(op.Limit, 51); len(want) != wantN || !slices.Equal(got, want) {
			t.Fatalf("range %d limit %d: remote %d entries, local %d, want %d", i, op.Limit, len(got), len(want), wantN)
		}
	}
}

// TestZeroOpBatches: empty vector and range submissions complete
// immediately with empty results on both bindings.
func TestZeroOpBatches(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	addr := startServer(t, svc, wire.Config{})
	rm, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()
	if res := rm.GoBatch(ctx, nil).Wait(); len(res) != 0 {
		t.Fatalf("empty GoBatch: %v", res)
	}
	if res := rm.JoinBatch(ctx, nil).WaitJoin(); len(res) != 0 {
		t.Fatalf("empty JoinBatch: %v", res)
	}
	if res := rm.ApplyBatch(ctx, nil).Wait(); len(res) != 0 {
		t.Fatalf("empty ApplyBatch: %v", res)
	}
	rf := rm.RangeBatch(ctx, nil)
	rf.Wait()
	if rf.Err() != nil || rf.Dropped() {
		t.Fatalf("empty RangeBatch: err %v dropped %v", rf.Err(), rf.Dropped())
	}
}

// TestQuotaShed: a tenant over its token budget has whole frames
// refused — the client sees ErrShed futures with Dropped results, the
// server's per-tenant shed counter and the service's by-reason drop
// stats account for every op, and nothing reaches the shards.
func TestQuotaShed(t *testing.T) {
	o := obs.New()
	svc := testService(t, o)
	defer svc.Close()
	// Burst 100 tokens, effectively no refill: the second 80-key batch
	// must be refused atomically (80 > 20 remaining).
	addr := startServer(t, svc, wire.Config{TenantRate: 1e-9, TenantBurst: 100})
	rm, err := client.Dial(addr, client.WithTenant("team-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()

	keys := make([]uint64, 80)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	first := rm.GoBatch(ctx, slices.Clone(keys))
	if err := first.Err(); err != nil {
		t.Fatalf("first batch within burst: %v", err)
	}
	second := rm.GoBatch(ctx, slices.Clone(keys))
	res := second.Wait()
	if err := second.Err(); !errors.Is(err, client.ErrShed) {
		t.Fatalf("second batch: want ErrShed, got %v", err)
	}
	var shedErr *client.ShedError
	if !errors.As(second.Err(), &shedErr) || shedErr.Reason != wire.ShedQuota {
		t.Fatalf("shed reason: %+v", second.Err())
	}
	for i, r := range res {
		if !r.Dropped || r.Code != serve.NotFound {
			t.Fatalf("shed result %d: %+v", i, r)
		}
	}

	shed := o.Registry().Counter(obs.Name("wire_sheds", "tenant", "team-a")).Load()
	if shed != uint64(len(keys)) {
		t.Fatalf("wire_sheds{tenant=team-a} = %d, want %d", shed, len(keys))
	}
	if st := svc.Stats(); st.DroppedShed != uint64(len(keys)) {
		t.Fatalf("Stats.DroppedShed = %d, want %d", st.DroppedShed, len(keys))
	}
	cs := rm.Stats()
	if cs.Shed != uint64(len(keys)) {
		t.Fatalf("client Stats.Shed = %d, want %d", cs.Shed, len(keys))
	}
}

// TestServerCloseFailsClient: closing the server surfaces
// serve.ErrClosed on subsequent client calls — the same sentinel an
// in-process caller races against Close, so shutdown handling is
// binding-agnostic.
func TestServerCloseFailsClient(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	srv := wire.NewServer(svc, wire.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	rm, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()
	if r := rm.Lookup(ctx, 4); !r.Found {
		t.Fatalf("warmup lookup: %+v", r)
	}
	srv.Close()
	// The conn teardown races the next submit; within a bounded window
	// every call must start failing with ErrClosed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		bf := rm.GoBatch(ctx, []uint64{2, 4})
		bf.Wait()
		if err := bf.Err(); errors.Is(err, serve.ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never observed ErrClosed after server close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBadHandshake: a client that opens with garbage gets MsgErr and a
// closed connection, and the server survives to serve a good client.
func TestBadHandshake(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	addr := startServer(t, svc, wire.Config{})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	bad := wire.AppendHello(nil, wire.Hello{Version: wire.Version, Tenant: "x"})
	bad[0] ^= 0xff // corrupt the magic
	if err := wire.WriteFrame(nc, wire.MsgHello, bad); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(nc, 0)
	tp, p, err := fr.Next()
	if err != nil {
		t.Fatalf("expected an error frame, got %v", err)
	}
	if tp != wire.MsgErr {
		t.Fatalf("expected MsgErr, got %v", tp)
	}
	if msg, err := wire.DecodeErr(p); err != nil || msg == "" {
		t.Fatalf("error frame: %q, %v", msg, err)
	}
	// The connection must be closed by the server after the error.
	if _, _, err := fr.Next(); err == nil {
		t.Fatal("server kept the connection open after a bad handshake")
	}

	// And the server still serves.
	rm, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	if r := rm.Lookup(context.Background(), 4); !r.Found {
		t.Fatalf("post-garbage lookup: %+v", r)
	}
}

// TestE2ESnapshotAtomicity drives the new header flags end to end: a
// Remote dialed WithSnapshotReads races vector lookups and range scans
// against a writer issuing cross-shard ApplyBatchAtomic batches that
// rewrite every key to a uniform version. Snapshot-pinned readers must
// never observe a torn batch — every key found at the same version —
// across the full encode → admit → pin → drain → decode path.
func TestE2ESnapshotAtomicity(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	addr := startServer(t, svc, wire.Config{})
	rm, err := client.Dial(addr, client.WithSnapshotReads(true))
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()

	// Fresh keys off the build domain, spread over the 3 shards.
	keys := make([]uint64, 9)
	for i := range keys {
		keys[i] = 5000 + uint64(i)*7
	}
	const rounds = 25

	// uniform asserts all-or-none at a single version and returns it.
	uniform := func(t *testing.T, who string, found []uint32) uint32 {
		t.Helper()
		if len(found) == 0 {
			return 0
		}
		v := found[0]
		for _, f := range found[1:] {
			if f != v {
				t.Errorf("%s: torn atomic batch: versions %d and %d visible together", who, v, f)
				return v
			}
		}
		if len(found) != len(keys) {
			t.Errorf("%s: partial batch: %d of %d keys at version %d", who, len(found), len(keys), v)
		}
		return v
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var lookupMax, rangeMax uint32
	wg.Add(2)
	go func() { // snapshot-pinned vector lookups
		defer wg.Done()
		var last uint32
		for {
			select {
			case <-stop:
				lookupMax = last
				return
			default:
			}
			res := rm.GoBatch(context.Background(), keys).Wait()
			var found []uint32
			for _, e := range res {
				if e.Dropped {
					t.Error("lookup dropped without a deadline")
					return
				}
				if e.Found {
					found = append(found, e.Code)
				}
			}
			if v := uniform(t, "lookup", found); v != 0 {
				if v < last {
					t.Errorf("lookup went back in time: %d after %d", v, last)
					return
				}
				last = v
			}
		}
	}()
	go func() { // snapshot-pinned range scans over the same window
		defer wg.Done()
		var last uint32
		for {
			select {
			case <-stop:
				rangeMax = last
				return
			default:
			}
			rf := rm.Range(context.Background(), keys[0], keys[len(keys)-1]+1, 0)
			ents := rf.Collect(0)
			if rf.Dropped() {
				t.Error("range dropped without a deadline")
				return
			}
			var found []uint32
			for _, e := range ents {
				found = append(found, e.Code)
			}
			if v := uniform(t, "range", found); v != 0 {
				if v < last {
					t.Errorf("range went back in time: %d after %d", v, last)
					return
				}
				last = v
			}
		}
	}()

	for v := uint32(1); v <= rounds; v++ {
		ops := make([]serve.Op, len(keys))
		for i, k := range keys {
			ops[i] = serve.Op{Kind: serve.OpInsert, Key: k, Val: v}
		}
		bf := rm.ApplyBatchAtomic(context.Background(), ops)
		if err := bf.Err(); err != nil {
			t.Fatalf("atomic batch %d: %v", v, err)
		}
		if d := bf.Dropped(); d != 0 {
			t.Fatalf("atomic batch %d: %d ops dropped", v, d)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if lookupMax == 0 && rangeMax == 0 {
		t.Fatal("readers never observed any committed batch")
	}

	// After the last batch is acknowledged, a fresh snapshot read must
	// land on the final version for every key.
	res := rm.GoBatch(context.Background(), keys).Wait()
	for i, e := range res {
		if !e.Found || e.Code != rounds {
			t.Fatalf("final read key %d: %+v, want version %d", keys[i], e, rounds)
		}
	}
}
