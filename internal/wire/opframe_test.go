package wire_test

// Op-frame tests: point ops and ApplyBatch fly as one op column and are
// admitted as one column — the same results as in process, no wait in
// the server's point batcher, no match stream for point joins — and a
// remote request the service would panic on is shed as a bad request.

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"slices"
	"testing"
	"time"

	"repro/client"
	"repro/internal/serve"
	"repro/internal/wire"
)

// genOpColumn draws a column mixing every point kind over a small key
// space, so keys repeat inside the column and reads land after writes to
// their own key.
func genOpColumn(rng *rand.Rand, n int) []serve.Op {
	ops := make([]serve.Op, n)
	for i := range ops {
		k := rng.Uint64N(48) * 3 // hits, misses and fresh keys on every shard
		switch p := rng.Uint64N(100); {
		case p < 35:
			ops[i] = serve.Op{Kind: serve.OpLookup, Key: k}
		case p < 60:
			ops[i] = serve.Op{Kind: serve.OpJoin, Key: k}
		case p < 85:
			ops[i] = serve.Op{Kind: serve.OpInsert, Key: k, Val: rng.Uint32N(1 << 20)}
		default:
			ops[i] = serve.Op{Kind: serve.OpDelete, Key: k}
		}
	}
	return ops
}

// TestLoopbackApplyBatchDifferential: mixed-kind op columns through
// Remote.ApplyBatch and through serve.ApplyBatch on a twin service agree
// position by position — every op's result, and every join's aggregate —
// over a sequence of columns whose writes the later columns read, in
// plain and snapshot-read mode and with a pre-cancelled context. (Join
// aggregates compare at join positions: a column without a join answers
// with plain result records.) A column's reads observe its own earlier
// writes on both bindings.
func TestLoopbackApplyBatchDifferential(t *testing.T) {
	local := testService(t, nil)
	defer local.Close()
	remoteSvc := testService(t, nil)
	defer remoteSvc.Close()
	addr := startServer(t, remoteSvc, wire.Config{})
	plain, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	pinned, err := client.Dial(addr, client.WithSnapshotReads(true))
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	rng := rand.New(rand.NewPCG(51, 52))
	for round, n := range []int{1, 7, 64, 65, 200, 1000, 40, 300} {
		ops := genOpColumn(rng, n)
		snapshot, rctx := round%2 == 1, ctx
		if round == 6 {
			rctx = cancelled
		}
		var lbf *serve.BatchFuture
		rm := plain
		if snapshot {
			lbf, rm = local.ApplyBatchAt(rctx, slices.Clone(ops), nil), pinned
		} else {
			lbf = local.ApplyBatch(rctx, slices.Clone(ops))
		}
		rbf := rm.ApplyBatch(rctx, slices.Clone(ops))
		want, got := lbf.Wait(), rbf.Wait()
		wantJ, gotJ := lbf.WaitJoin(), rbf.WaitJoin()
		hasJoin := slices.ContainsFunc(ops, func(op serve.Op) bool { return op.Kind == serve.OpJoin })
		if err := rbf.Err(); err != nil || len(got) != n || hasJoin && len(gotJ) != n || !slices.Equal(rbf.Ops(), ops) {
			t.Fatalf("round %d: err %v, %d results and %d join results for %d ops, ops kept %v",
				round, err, len(got), len(gotJ), n, slices.Equal(rbf.Ops(), ops))
		}
		for i, op := range ops {
			if got[i] != want[i] {
				t.Fatalf("round %d (snapshot %v) position %d %+v: remote %+v, local %+v", round, snapshot, i, op, got[i], want[i])
			}
			if op.Kind == serve.OpJoin && gotJ[i] != wantJ[i] {
				t.Fatalf("round %d (snapshot %v) position %d %+v: remote join %+v, local %+v", round, snapshot, i, op, gotJ[i], wantJ[i])
			}
		}
		if rbf.Dropped() != lbf.Dropped() || (rctx == cancelled) != (rbf.Dropped() == n) {
			t.Fatalf("round %d: %d remote drops, %d local, of %d ops", round, rbf.Dropped(), lbf.Dropped(), n)
		}
	}

	// Read-your-writes inside one column, spelled out.
	const k = 1001 // odd: outside the domain
	ops := []serve.Op{
		{Kind: serve.OpLookup, Key: k},
		{Kind: serve.OpInsert, Key: k, Val: 77},
		{Kind: serve.OpLookup, Key: k},
		{Kind: serve.OpJoin, Key: 4},
		{Kind: serve.OpDelete, Key: k},
		{Kind: serve.OpLookup, Key: k},
	}
	res := plain.ApplyBatch(ctx, ops).Wait()
	miss, hit := serve.Result{Code: serve.NotFound}, serve.Result{Code: 77, Found: true}
	if res[0] != miss || res[1] != hit || res[2] != hit || res[5] != miss {
		t.Fatalf("one column's reads around its own writes: %+v", res)
	}
}

// TestLoopbackNoSecondLinger: a synchronous remote Lookup, Insert and
// GoJoin each complete within 2 s, a bound only a hang or a wait on a
// timer could break: an op frame is admitted as one column, not fed op
// by op through the service's point batcher. Point joins answer with
// their aggregates in the results frame alone: the client receives
// exactly one frame per frame it sent, no MsgMatchChunk.
func TestLoopbackNoSecondLinger(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	rm, err := client.Dial(startServer(t, svc, wire.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()
	timed := func(name string, f func()) {
		t.Helper()
		start := time.Now()
		f()
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("synchronous remote %s took %v", name, d)
		}
	}
	timed("Lookup", func() {
		if r := rm.Lookup(ctx, 4); r != (serve.Result{Code: 2, Found: true}) {
			t.Errorf("Lookup(4) = %+v", r)
		}
	})
	timed("Insert", func() {
		if r := rm.Insert(ctx, 1001, 9).Wait(); r != (serve.Result{Code: 9, Found: true}) {
			t.Errorf("Insert ack %+v", r)
		}
	})

	keys := make([]uint64, 20)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	want := svc.JoinBatch(ctx, keys).WaitJoin()
	before := rm.Stats()
	var hits uint32
	for i, k := range keys {
		timed("GoJoin", func() {
			jr := rm.GoJoin(ctx, k).WaitJoin()
			if jr != want[i] {
				t.Errorf("GoJoin(%d) = %+v, in-process %+v", k, jr, want[i])
			}
			hits += jr.Hits
		})
	}
	after := rm.Stats()
	if hits == 0 {
		t.Fatal("no point join matched; the match-stream check is vacuous")
	}
	if in, out := after.FramesIn-before.FramesIn, after.FramesOut-before.FramesOut; in != out {
		t.Fatalf("point joins: %d frames received for %d sent (matches streamed back)", in, out)
	}
}

// rawConn dials addr and handshakes by hand, for frames the client
// package would refuse to send.
func rawConn(t *testing.T, addr string) (net.Conn, *wire.FrameReader, wire.HelloAck) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.AppendHello(nil, wire.Hello{Version: wire.Version})); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(nc, 0)
	tp, p, err := fr.Next()
	if err != nil || tp != wire.MsgHelloAck {
		t.Fatalf("handshake: %v %v", tp, err)
	}
	ack, err := wire.DecodeHelloAck(p)
	if err != nil {
		t.Fatal(err)
	}
	return nc, fr, ack
}

// TestBadRequestShed: op frames the service would panic on — a read in
// an atomic frame, a join on a server without a build side, OpRange, an
// unknown kind, an insert of the NotFound sentinel — are each shed with
// ShedBadRequest, unserved and counted, and the connection keeps
// serving: a valid frame after each is answered.
func TestBadRequestShed(t *testing.T) {
	domain := make([]uint64, 64)
	for i := range domain {
		domain[i] = uint64(i) * 2
	}
	svc, err := serve.New(domain, serve.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	nc, fr, ack := rawConn(t, startServer(t, svc, wire.Config{}))
	if ack.HasBuild || ack.Version != wire.Version || int(ack.Shards) != svc.Shards() {
		t.Fatalf("handshake of a lookup-only server: %+v", ack)
	}
	bad := []struct {
		name  string
		flags uint8
		ops   []serve.Op
	}{
		{"lookup in an atomic frame", wire.ReqFlagAtomic, []serve.Op{{Kind: serve.OpInsert, Key: 1, Val: 1}, {Kind: serve.OpLookup, Key: 2}}},
		{"join without a build side", 0, []serve.Op{{Kind: serve.OpLookup, Key: 2}, {Kind: serve.OpJoin, Key: 4}}},
		{"OpRange", 0, []serve.Op{{Kind: serve.OpRange, Key: 0}}},
		{"unknown kind", 0, []serve.Op{{Kind: 0xee, Key: 2}}},
		{"insert of NotFound", 0, []serve.Op{{Kind: serve.OpInsert, Key: 3, Val: serve.NotFound}}},
	}
	var buf []byte
	send := func(id uint64, flags uint8, ops []serve.Op) (wire.MsgType, []byte) {
		t.Helper()
		buf = wire.AppendOpBatch(wire.BeginFrame(buf, wire.MsgOpBatch), wire.OpBatch{Hdr: wire.ReqHeader{ID: id, Flags: flags}, Ops: ops})
		wire.EndFrame(buf)
		if _, err := nc.Write(buf); err != nil {
			t.Fatal(err)
		}
		tp, p, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		return tp, p
	}
	shed := 0
	for i, b := range bad {
		id := uint64(2*i + 1)
		tp, p := send(id, b.flags, b.ops)
		if tp != wire.MsgShed {
			t.Fatalf("%s: got %v, want a shed", b.name, tp)
		}
		if s, err := wire.DecodeShed(p); err != nil || s != (wire.Shed{ID: id, Reason: wire.ShedBadRequest}) {
			t.Fatalf("%s: shed %+v, %v", b.name, s, err)
		}
		shed += len(b.ops)
		tp, p = send(id+1, 0, []serve.Op{{Kind: serve.OpLookup, Key: 4}, {Kind: serve.OpInsert, Key: 5, Val: 7}})
		if tp != wire.MsgResults {
			t.Fatalf("after %s: got %v, want results", b.name, tp)
		}
		r, err := wire.DecodeResults(p)
		want := []wire.Result{{Code: 2, Flags: wire.FlagFound}, {Code: 7, Flags: wire.FlagFound}}
		if err != nil || r.ID != id+1 || !slices.Equal(r.Res, want) {
			t.Fatalf("after %s: %+v, %v", b.name, r, err)
		}
	}
	if st := svc.Stats(); st.DroppedShed != uint64(shed) || st.Inserts != uint64(len(bad)) {
		t.Fatalf("Stats: %d shed (want %d), %d inserts applied (want %d)", st.DroppedShed, shed, st.Inserts, len(bad))
	}
}

// TestQuotaFrameOverBurst: a frame with more ops than the tenant's whole
// token bucket could ever hold is a bad request, not a quota shed — a
// quota shed tells the client to retry, and no retry would fit it. A
// frame within the burst is still served.
func TestQuotaFrameOverBurst(t *testing.T) {
	svc := testService(t, nil)
	defer svc.Close()
	rm, err := client.Dial(startServer(t, svc, wire.Config{TenantRate: 1e-9, TenantBurst: 100}))
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()
	ctx := context.Background()
	bf := rm.GoBatch(ctx, make([]uint64, 150))
	var shedErr *client.ShedError
	if err := bf.Err(); !errors.As(err, &shedErr) || shedErr.Reason != wire.ShedBadRequest {
		t.Fatalf("150 keys against a 100-token burst: %v, want a bad-request shed", err)
	}
	if bf := rm.GoBatch(ctx, make([]uint64, 100)); bf.Err() != nil {
		t.Fatalf("100 keys against a full 100-token bucket: %v", bf.Err())
	}
}
