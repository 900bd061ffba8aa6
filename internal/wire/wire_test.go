package wire

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/serve"
)

// Round-trip every frame type through its Append/Decode pair: the
// protocol has no reflection or code generation, so the pairs only stay
// in sync because these tests hold them together.

func TestHelloRoundTrip(t *testing.T) {
	p := AppendHello(nil, Hello{Version: Version, Tenant: "team-a"})
	h, err := DecodeHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != Version || h.Tenant != "team-a" {
		t.Fatalf("got %+v", h)
	}
	if _, err := DecodeHello(AppendHello(nil, Hello{Version: 9, Tenant: ""})); err != nil {
		t.Fatalf("empty tenant should round-trip: %v", err)
	}
	// Magic violation is ErrMalformed.
	bad := slices.Clone(p)
	bad[0] ^= 0xff
	if _, err := DecodeHello(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: got %v", err)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, in := range []HelloAck{{Version: 3, Shards: 12, HasBuild: true}, {Version: 3, Shards: 1}} {
		a, err := DecodeHelloAck(AppendHelloAck(nil, in))
		if err != nil || a != in {
			t.Fatalf("got %+v, %v, want %+v", a, err, in)
		}
	}
}

func TestKeyBatchRoundTrip(t *testing.T) {
	in := KeyBatch{
		Hdr:  ReqHeader{ID: 42, DeadlineUS: 1500},
		Keys: []uint64{0, 1, ^uint64(0), 7},
	}
	out, err := DecodeKeyBatch(AppendKeyBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Hdr != in.Hdr || !slices.Equal(out.Keys, in.Keys) {
		t.Fatalf("got %+v want %+v", out, in)
	}
	// Zero keys is legal on the wire.
	out, err = DecodeKeyBatch(AppendKeyBatch(nil, KeyBatch{Hdr: ReqHeader{ID: 1}}))
	if err != nil || len(out.Keys) != 0 {
		t.Fatalf("empty batch: %+v, %v", out, err)
	}
}

// TestDecodeKeyBatchInto pins the recycling contract: a column with room
// is decoded into in place, one without is replaced by exactly the
// frame's count, and a malformed payload leaves the column alone.
func TestDecodeKeyBatchInto(t *testing.T) {
	in := KeyBatch{Hdr: ReqHeader{ID: 7, Flags: ReqFlagSnapshot}, Keys: []uint64{9, 8, 9, ^uint64(0)}}
	p := AppendKeyBatch(nil, in)
	col := make([]uint64, 1, 16)
	col[0] = 12345
	out, err := DecodeKeyBatchInto(p, col)
	if err != nil || out.Hdr != in.Hdr || !slices.Equal(out.Keys, in.Keys) {
		t.Fatalf("got %+v, %v", out, err)
	}
	if &out.Keys[0] != &col[0] || cap(out.Keys) != 16 {
		t.Fatal("a column with room was not decoded into in place")
	}
	out, err = DecodeKeyBatchInto(p, make([]uint64, 0, 3))
	if err != nil || !slices.Equal(out.Keys, in.Keys) || cap(out.Keys) != len(in.Keys) {
		t.Fatalf("short column: got %+v (cap %d), %v", out, cap(out.Keys), err)
	}
	col[0] = 12345
	if _, err := DecodeKeyBatchInto(append(p, 0xee), col); !errors.Is(err, ErrMalformed) || col[0] != 12345 {
		t.Fatalf("trailing garbage: err %v, column %v", err, col[:1])
	}
}

// TestFrameInPlace: BeginFrame/EndFrame around an appended payload are
// byte-identical to WriteFrame of that payload, and reuse the scratch.
func TestFrameInPlace(t *testing.T) {
	kb := KeyBatch{Hdr: ReqHeader{ID: 3}, Keys: []uint64{1, 2, 3}}
	var want bytes.Buffer
	if err := WriteFrame(&want, MsgLookupBatch, AppendKeyBatch(nil, kb)); err != nil {
		t.Fatal(err)
	}
	scratch := append(make([]byte, 0, 256), "stale bytes"...)
	got := AppendKeyBatch(BeginFrame(scratch, MsgLookupBatch), kb)
	EndFrame(got)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("got % x\nwant % x", got, want.Bytes())
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("scratch with room was not reused")
	}
}

func TestRangeBatchRoundTrip(t *testing.T) {
	in := RangeBatch{
		Hdr:    ReqHeader{ID: 9},
		Ranges: []RangeReq{{Lo: 2, Hi: 100, Limit: 0}, {Lo: 0, Hi: ^uint64(0), Limit: 5}},
	}
	out, err := DecodeRangeBatch(AppendRangeBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Hdr != in.Hdr || !slices.Equal(out.Ranges, in.Ranges) {
		t.Fatalf("got %+v want %+v", out, in)
	}
}

// TestOpBatchRoundTrip: every kind rides an op frame as kind, key and
// value, an unknown kind decodes as sent (screening it is the server's
// job), and the decode-into contract of DecodeKeyBatchInto holds: a
// column with room is decoded into in place, and a malformed payload
// leaves it alone.
func TestOpBatchRoundTrip(t *testing.T) {
	in := OpBatch{
		Hdr: ReqHeader{ID: 3, DeadlineUS: 10, Flags: ReqFlagAtomic},
		Ops: []serve.Op{
			{Kind: serve.OpInsert, Key: 8, Val: 77},
			{Kind: serve.OpDelete, Key: 9},
			{Kind: serve.OpLookup, Key: ^uint64(0)},
			{Kind: serve.OpJoin, Key: 4},
			{Kind: 200, Key: 5, Val: 6},
		},
	}
	p := AppendOpBatch(nil, in)
	if len(p) != 17+opSize*len(in.Ops) {
		t.Fatalf("%d-byte payload for %d ops", len(p), len(in.Ops))
	}
	col := make([]serve.Op, 1, 16)
	out, err := DecodeOpBatchInto(p, col)
	if err != nil || out.Hdr != in.Hdr || !slices.Equal(out.Ops, in.Ops) {
		t.Fatalf("got %+v, %v, want %+v", out, err, in)
	}
	if &out.Ops[0] != &col[0] {
		t.Fatal("a column with room was not decoded into in place")
	}
	col[0] = serve.Op{Key: 12345}
	if _, err := DecodeOpBatchInto(p[:len(p)-1], col); !errors.Is(err, ErrMalformed) || col[0].Key != 12345 {
		t.Fatalf("truncated record: err %v, column %v", err, col[:1])
	}
}

func TestResultFramesRoundTrip(t *testing.T) {
	res := Results{ID: 5, Res: []Result{{Code: 1, Flags: FlagFound}, {Code: ^uint32(0), Flags: FlagDropped}}}
	gotR, err := DecodeResults(AppendResults(nil, res))
	if err != nil || gotR.ID != 5 || !slices.Equal(gotR.Res, res.Res) {
		t.Fatalf("results: %+v, %v", gotR, err)
	}

	jr := JoinResults{ID: 6, Res: []JoinRes{{Code: 2, Hits: 3, Agg: 1 << 40, Flags: FlagFound}}}
	gotJ, err := DecodeJoinResults(AppendJoinResults(nil, jr))
	if err != nil || gotJ.ID != 6 || !slices.Equal(gotJ.Res, jr.Res) {
		t.Fatalf("join results: %+v, %v", gotJ, err)
	}

	mc := MatchChunk{ID: 7, Matches: []MatchRec{{Probe: 0, Key: 4, Code: 2, Payload: 9}}}
	gotM, err := DecodeMatchChunk(AppendMatchChunk(nil, mc))
	if err != nil || gotM.ID != 7 || !slices.Equal(gotM.Matches, mc.Matches) {
		t.Fatalf("match chunk: %+v, %v", gotM, err)
	}

	rc := RangeChunk{ID: 8, Range: 2, Ents: []RangeEnt{{Key: 10, Code: 5}, {Key: 12, Code: 6}}}
	gotC, err := DecodeRangeChunk(AppendRangeChunk(nil, rc))
	if err != nil || gotC.ID != 8 || gotC.Range != 2 || !slices.Equal(gotC.Ents, rc.Ents) {
		t.Fatalf("range chunk: %+v, %v", gotC, err)
	}

	rd, err := DecodeRangeDone(AppendRangeDone(nil, RangeDone{ID: 9, Dropped: true}))
	if err != nil || rd.ID != 9 || !rd.Dropped {
		t.Fatalf("range done: %+v, %v", rd, err)
	}

	sh, err := DecodeShed(AppendShed(nil, Shed{ID: 10, Reason: ShedQuota}))
	if err != nil || sh.ID != 10 || sh.Reason != ShedQuota {
		t.Fatalf("shed: %+v, %v", sh, err)
	}

	msg, err := DecodeErr(AppendErr(nil, "boom"))
	if err != nil || msg != "boom" {
		t.Fatalf("err frame: %q, %v", msg, err)
	}
}

// TestResultsInPlace holds the in-place forms to the Append/Decode pair:
// records written out of order into a recycled payload encode to the
// same bytes AppendResults produces, and SplitResults/ResultAt read them
// back — for both record types.
func TestResultsInPlace(t *testing.T) {
	res := Results{ID: 5, Res: []Result{{Code: 1, Flags: FlagFound}, {Code: ^uint32(0), Flags: FlagDropped}, {Code: 7}}}
	stale := bytes.Repeat([]byte{0xaa}, 64)
	payload, recs := beginRecords(stale, res.ID, len(res.Res), ResultSize)
	for _, i := range []int{2, 0, 1} {
		putResult(recs, i, res.Res[i].Code, res.Res[i].Flags)
	}
	if want := AppendResults(nil, res); !bytes.Equal(payload, want) || &payload[0] != &stale[0] {
		t.Fatalf("results in place: % x, want % x", payload, want)
	}
	id, col, err := SplitResults(payload)
	if err != nil || id != res.ID || len(col) != len(res.Res)*ResultSize {
		t.Fatalf("split: id %d, %d bytes, %v", id, len(col), err)
	}
	for i, want := range res.Res {
		if got := ResultAt(col, i); got != want {
			t.Fatalf("record %d: %+v, want %+v", i, got, want)
		}
	}

	jr := JoinResults{ID: 6, Res: []JoinRes{{Code: 2, Hits: 3, Agg: 1 << 40, Flags: FlagFound}, {Code: 9, Hits: 1, Agg: 4}}}
	payload, recs = beginRecords(nil, jr.ID, len(jr.Res), JoinResSize)
	for _, i := range []int{1, 0} {
		putJoinRes(recs, i, jr.Res[i])
	}
	if want := AppendJoinResults(nil, jr); !bytes.Equal(payload, want) {
		t.Fatalf("join results in place: % x, want % x", payload, want)
	}
	id, col, err = SplitJoinResults(payload)
	if err != nil || id != jr.ID || len(col) != len(jr.Res)*JoinResSize {
		t.Fatalf("split join: id %d, %d bytes, %v", id, len(col), err)
	}
	for i, want := range jr.Res {
		if got := JoinResAt(col, i); got != want {
			t.Fatalf("join record %d: %+v, want %+v", i, got, want)
		}
	}
	// The split forms keep the decoders' guards: a lying count and
	// trailing bytes are both malformed.
	if _, _, err := SplitResults(append(slices.Clone(payload), 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: %v", err)
	}
	lying := AppendResults(nil, Results{ID: 1})
	lying[8] = 0xff
	if _, col, err := SplitResults(lying); !errors.Is(err, ErrMalformed) || len(col) != 0 {
		t.Fatalf("lying count: %d bytes, %v", len(col), err)
	}
}

// TestDecodeRejectsTrailingGarbage pins the fin() check: a frame with
// extra bytes after the advertised content is malformed, not silently
// accepted — catching encoder/decoder drift.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	p := AppendKeyBatch(nil, KeyBatch{Hdr: ReqHeader{ID: 1}, Keys: []uint64{2}})
	p = append(p, 0xee)
	if _, err := DecodeKeyBatch(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing garbage: got %v", err)
	}
}

// TestDecodeCountGuard pins the allocation guard: a frame whose count
// field advertises more elements than its payload could hold must fail
// before allocating, not after — a 4-byte frame claiming 2^31 keys
// would otherwise ask for 16 GiB.
func TestDecodeCountGuard(t *testing.T) {
	var p []byte
	p = append(p, 1, 0, 0, 0, 0, 0, 0, 0) // ID
	p = append(p, 0, 0, 0, 0)             // deadline
	p = append(p, 0xff, 0xff, 0xff, 0x7f) // count: ~2^31 keys, no key bytes
	if _, err := DecodeKeyBatch(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("lying count: got %v", err)
	}
}

func TestFrameReader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgResults, AppendResults(nil, Results{ID: 1})); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgShed, AppendShed(nil, Shed{ID: 2, Reason: ShedOverload})); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 0)
	tp, p, err := fr.Next()
	if err != nil || tp != MsgResults {
		t.Fatalf("frame 1: %v %v", tp, err)
	}
	if _, err := DecodeResults(p); err != nil {
		t.Fatal(err)
	}
	tp, p, err = fr.Next()
	if err != nil || tp != MsgShed {
		t.Fatalf("frame 2: %v %v", tp, err)
	}
	if _, err := DecodeShed(p); err != nil {
		t.Fatal(err)
	}
	// Clean EOF at a frame boundary.
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("eof: got %v", err)
	}
}

func TestFrameReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgResults, AppendResults(nil, Results{ID: 1, Res: []Result{{Code: 9}}})); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every proper prefix that isn't empty must yield ErrUnexpectedEOF,
	// never a short frame or a hang.
	for cut := 1; cut < len(whole); cut++ {
		fr := NewFrameReader(bytes.NewReader(whole[:cut]), 0)
		if _, _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: got %v", cut, err)
		}
	}
}

func TestFrameReaderLimit(t *testing.T) {
	var buf bytes.Buffer
	payload := make([]byte, 128)
	if err := WriteFrame(&buf, MsgResults, payload); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 64)
	if _, _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v", err)
	}
}

// FuzzWireDecode throws arbitrary bytes at every decoder and at the
// frame reader. The invariant is total: no panic, no runaway
// allocation — a malformed frame is an error value, nothing else.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendHello(nil, Hello{Version: Version, Tenant: "t"}))
	f.Add(AppendKeyBatch(nil, KeyBatch{Hdr: ReqHeader{ID: 1}, Keys: []uint64{1, 2, 3}}))
	f.Add(AppendRangeBatch(nil, RangeBatch{Hdr: ReqHeader{ID: 2}, Ranges: []RangeReq{{Lo: 1, Hi: 2}}}))
	every := []serve.Op{{Kind: serve.OpLookup, Key: 1}, {Kind: serve.OpJoin, Key: 2}, {Kind: serve.OpInsert, Key: 3, Val: 4}, {Kind: serve.OpDelete, Key: 5}}
	f.Add(AppendOpBatch(nil, OpBatch{Hdr: ReqHeader{ID: 3}, Ops: every}))
	f.Add(AppendOpBatch(nil, OpBatch{Hdr: ReqHeader{ID: 3, Flags: ReqFlagAtomic}, Ops: every[2:]}))
	f.Add(AppendOpBatch(nil, OpBatch{Hdr: ReqHeader{ID: 3}, Ops: []serve.Op{{Kind: serve.OpRange, Key: 1}, {Kind: 0xff, Key: 2}}}))
	truncated := AppendOpBatch(nil, OpBatch{Hdr: ReqHeader{ID: 3}, Ops: every[:2]})
	f.Add(truncated[:len(truncated)-1])
	f.Add(AppendResults(nil, Results{ID: 4, Res: []Result{{Code: 5}}}))
	f.Add(AppendJoinResults(nil, JoinResults{ID: 5, Res: []JoinRes{{Code: 1}}}))
	f.Add(AppendMatchChunk(nil, MatchChunk{ID: 6, Matches: []MatchRec{{Key: 1}}}))
	f.Add(AppendRangeChunk(nil, RangeChunk{ID: 7, Ents: []RangeEnt{{Key: 1}}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		DecodeHello(p)
		DecodeHelloAck(p)
		DecodeRangeBatch(p)
		DecodeMatchChunk(p)
		DecodeRangeChunk(p)
		DecodeRangeDone(p)
		DecodeShed(p)
		DecodeErr(p)
		// The decode-into and split forms the server and client run on:
		// the same verdict as the allocating decoders, and nothing they
		// hand back — a grown column, a record view — reaches past what
		// the payload itself holds, whatever its count field says.
		small := make([]uint64, 0, 2)
		kb, kerr := DecodeKeyBatch(p)
		into, ierr := DecodeKeyBatchInto(p, small)
		if (kerr == nil) != (ierr == nil) || (ierr == nil && !slices.Equal(into.Keys, kb.Keys)) {
			t.Fatalf("DecodeKeyBatchInto %v %v, DecodeKeyBatch %v %v", into.Keys, ierr, kb.Keys, kerr)
		}
		if c := cap(into.Keys); c > cap(small) && c > len(p)/8 {
			t.Fatalf("DecodeKeyBatchInto grew to %d keys from a %d-byte payload", c, len(p))
		}
		smallOps := make([]serve.Op, 0, 2)
		ob, oerr := DecodeOpBatchInto(p, smallOps)
		if oerr == nil && !bytes.Equal(AppendOpBatch(nil, ob), p) {
			t.Fatalf("DecodeOpBatchInto accepted %x, which does not re-encode to itself", p)
		}
		if c := cap(ob.Ops); c > cap(smallOps) && c > len(p)/opSize {
			t.Fatalf("DecodeOpBatchInto grew to %d ops from a %d-byte payload", c, len(p))
		}
		rs, rerr := DecodeResults(p)
		if _, recs, err := SplitResults(p); (err == nil) != (rerr == nil) || len(recs) > len(p) {
			t.Fatalf("SplitResults: %d bytes of %d, %v (DecodeResults %v)", len(recs), len(p), err, rerr)
		} else if err == nil {
			for i, want := range rs.Res {
				if got := ResultAt(recs, i); got != want {
					t.Fatalf("ResultAt(%d) = %+v, want %+v", i, got, want)
				}
			}
		}
		js, jerr := DecodeJoinResults(p)
		if _, recs, err := SplitJoinResults(p); (err == nil) != (jerr == nil) || len(recs) > len(p) {
			t.Fatalf("SplitJoinResults: %d bytes of %d, %v (DecodeJoinResults %v)", len(recs), len(p), err, jerr)
		} else if err == nil {
			for i, want := range js.Res {
				if got := JoinResAt(recs, i); got != want {
					t.Fatalf("JoinResAt(%d) = %+v, want %+v", i, got, want)
				}
			}
		}
		// The frame reader over the same bytes: must terminate with a
		// frame, an error, or EOF — never hang or panic. Cap the frame
		// size small so a lying length prefix cannot allocate big.
		fr := NewFrameReader(bytes.NewReader(p), 1<<16)
		for i := 0; i < 16; i++ {
			if _, _, err := fr.Next(); err != nil {
				break
			}
		}
	})
}
