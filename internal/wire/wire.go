// Package wire is the network protocol between a remote client and the
// serve service: a length-prefixed binary framing with a versioned
// handshake, typed request frames — key columns for lookup and join
// batches, op columns for point ops and ApplyBatch, range columns —
// (tenant identity rides the handshake, a request id and optional
// deadline ride every request header), and streaming response frames —
// join matches and range entries flow back in chunks as they
// materialize, ahead of the frame that completes the request.
//
// Layout (everything little-endian):
//
//	frame    := u32 length | u8 type | payload       (length = 1 + len(payload))
//	hello    := u32 magic | u16 version | u16 n | n×tenant bytes
//	helloack := u16 version | u16 shards | u8 build  (1: joins admissible)
//	header   := u64 id | u32 deadline_us | u8 flags   (0 = no deadline)
//	keys     := header | u32 n | n×u64                (lookup and join batches)
//	ranges   := header | u32 n | n×(u64 lo | u64 hi | u32 limit)
//	ops      := header | u32 n | n×(u8 kind | u64 key | u32 val)  (kind: serve.OpKind)
//	results  := u64 id | u32 n | n×(u32 code | u8 flags)
//	joinres  := u64 id | u32 n | n×(u32 code | u32 hits | u64 agg | u8 flags)
//	matches  := u64 id | u32 n | n×(u32 probe | u64 key | u32 code | u32 payload)
//	rchunk   := u64 id | u32 range | u32 n | n×(u64 key | u32 code)
//	rdone    := u64 id | u8 dropped
//	shed     := u64 id | u8 reason
//	err      := u16 n | n×message bytes
//
// Decoders never trust a length or count they have not bounds-checked
// against the remaining payload — a malformed or truncated frame is an
// error, never a panic or an unbounded allocation (FuzzWireDecode pins
// this).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/serve"
)

// Magic opens every Hello ("isiw" little-endian): a TCP client speaking
// the wrong protocol is refused at the first frame.
const Magic uint32 = 0x77697369

// Version is the protocol revision this package speaks. The handshake
// refuses a client whose version the server does not know. Version 2
// added the request-header flags byte (snapshot-pinned reads); version 3
// replaced the write-only frame with the op column (MsgOpBatch) and added
// the handshake's build bit.
const Version uint16 = 3

// DefaultMaxFrame bounds a frame's encoded length (16 MiB): the decoder
// refuses anything longer before buffering it, so a corrupt length
// prefix cannot make the server allocate arbitrarily.
const DefaultMaxFrame = 1 << 24

// MsgType tags a frame.
type MsgType uint8

const (
	// MsgHello is the client's first frame; MsgHelloAck the server's
	// acceptance (any other reply is a refusal).
	MsgHello MsgType = iota + 1
	MsgHelloAck
	// MsgLookupBatch and MsgJoinBatch carry a key column; MsgRangeBatch a
	// column of [lo, hi, limit] scans; MsgOpBatch an op column of
	// lookups, joins, inserts and deletes in any mix.
	MsgLookupBatch
	MsgJoinBatch
	MsgRangeBatch
	MsgOpBatch
	// MsgResults answers a lookup batch or an op batch without joins;
	// MsgJoinResults a join batch (after its MsgMatchChunk stream) or an
	// op batch carrying a join (no matches stream for it); MsgRangeChunk/
	// MsgRangeDone stream and then complete a range batch.
	MsgResults
	MsgJoinResults
	MsgMatchChunk
	MsgRangeChunk
	MsgRangeDone
	// MsgShed refuses one request without serving it (quota, overload,
	// closed service, or an invalid request).
	MsgShed
	// MsgErr reports a fatal protocol error; the sender closes the
	// connection after it.
	MsgErr
)

// String names the frame type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "helloack"
	case MsgLookupBatch:
		return "lookup-batch"
	case MsgJoinBatch:
		return "join-batch"
	case MsgRangeBatch:
		return "range-batch"
	case MsgOpBatch:
		return "op-batch"
	case MsgResults:
		return "results"
	case MsgJoinResults:
		return "join-results"
	case MsgMatchChunk:
		return "match-chunk"
	case MsgRangeChunk:
		return "range-chunk"
	case MsgRangeDone:
		return "range-done"
	case MsgShed:
		return "shed"
	case MsgErr:
		return "err"
	}
	return "unknown"
}

// Shed reasons: why a request was refused unserved.
const (
	// ShedQuota: the tenant's token bucket ran dry.
	ShedQuota uint8 = iota + 1
	// ShedOverload: the server-wide in-flight cap was reached.
	ShedOverload
	// ShedClosed: the service behind the server is closed.
	ShedClosed
	// ShedBadRequest: the request failed validation (an op of unknown or
	// range kind, a sentinel-colliding insert, a join without a build
	// side, a read in an atomic frame, a frame larger than the tenant's
	// whole token bucket).
	ShedBadRequest
)

// Result flag bits.
const (
	FlagFound   uint8 = 1 << 0
	FlagDropped uint8 = 1 << 1
)

// ErrFrameTooLarge reports a length prefix beyond the reader's cap.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrMalformed reports a payload that does not decode as its type: a
// truncated field, an element count beyond the remaining bytes, or
// trailing garbage.
var ErrMalformed = errors.New("wire: malformed frame")

// Hello is the client's opening frame.
type Hello struct {
	Version uint16
	Tenant  string
}

// HelloAck accepts a handshake. Shards is informational (the serving
// fleet's partition count); HasBuild says whether the service carries a
// build side, so a client can refuse a join probe before it flies.
type HelloAck struct {
	Version  uint16
	Shards   uint16
	HasBuild bool
}

// Request-header flag bits.
const (
	// ReqFlagSnapshot asks the server to drain the read at a pinned
	// commit horizon (serve's At-variants): the batch observes every
	// cross-shard atomic write batch all-or-nothing. An op frame's own
	// writes stay immediately visible.
	ReqFlagSnapshot uint8 = 1 << 0
	// ReqFlagAtomic asks the server to apply an op frame atomically
	// (serve.ApplyBatchAtomic): snapshot readers see all of the frame's
	// writes or none, across shards. An atomic frame carries writes only.
	ReqFlagAtomic uint8 = 1 << 1
)

// ReqHeader correlates a request with its responses (ID is
// client-assigned, unique per connection) and carries the optional
// relative deadline in microseconds (0 = none) plus the ReqFlag* bits.
type ReqHeader struct {
	ID         uint64
	DeadlineUS uint32
	Flags      uint8
}

// KeyBatch is a lookup or join probe column (the MsgType distinguishes).
type KeyBatch struct {
	Hdr  ReqHeader
	Keys []uint64
}

// RangeReq is one [Lo, Hi] scan emitting at most Limit entries (0 =
// unbounded).
type RangeReq struct {
	Lo, Hi uint64
	Limit  uint32
}

// RangeBatch is a column of range scans.
type RangeBatch struct {
	Hdr    ReqHeader
	Ranges []RangeReq
}

// OpBatch is an op column: each op flies as its kind, key and value
// (Val is an insert's code; Hi and Limit do not travel), and result i
// answers op i.
type OpBatch struct {
	Hdr ReqHeader
	Ops []serve.Op
}

// Result is one key's outcome: the resolved code plus FlagFound /
// FlagDropped.
type Result struct {
	Code  uint32
	Flags uint8
}

// Results answers a lookup or op batch, aligned with the request's key
// (or op) order.
type Results struct {
	ID  uint64
	Res []Result
}

// JoinRes is one join probe's aggregate outcome (in an op batch's
// MsgJoinResults, any op's outcome: Hits and Agg are zero but for a
// join).
type JoinRes struct {
	Code  uint32
	Hits  uint32
	Agg   uint64
	Flags uint8
}

// JoinResults completes a join batch or an op batch carrying a join,
// aligned with the request's key (or op) order; a join batch's per-match
// payloads streamed ahead of it in MsgMatchChunk frames.
type JoinResults struct {
	ID  uint64
	Res []JoinRes
}

// MatchRec is one streamed join match: build Payload matched probe
// number Probe (an index into the request's key order) whose key
// resolved to Code.
type MatchRec struct {
	Probe   uint32
	Key     uint64
	Code    uint32
	Payload uint32
}

// MatchChunk streams part of a join batch's matches.
type MatchChunk struct {
	ID      uint64
	Matches []MatchRec
}

// RangeEnt is one streamed range entry.
type RangeEnt struct {
	Key  uint64
	Code uint32
}

// RangeChunk streams part of range number Range's entries (ascending
// key order across the chunks of one range).
type RangeChunk struct {
	ID    uint64
	Range uint32
	Ents  []RangeEnt
}

// RangeDone completes a range batch; Dropped marks an incomplete stream
// (some shard dropped its scans).
type RangeDone struct {
	ID      uint64
	Dropped bool
}

// Shed refuses one request (see the Shed* reasons).
type Shed struct {
	ID     uint64
	Reason uint8
}

// --- encoding ------------------------------------------------------
//
// Append* build a frame payload onto dst (append-style, so a caller
// reuses one scratch buffer across frames); WriteFrame adds the length
// prefix and type tag.

// WriteFrame writes one complete frame.
//
//isi:hotpath
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// BeginFrame starts a frame at the front of an emptied scratch buffer:
// the type tag behind a length prefix EndFrame fills in once the payload
// has been appended. A sender that owns the scratch builds the whole
// frame in it and hands the socket one write.
//
//isi:hotpath
func BeginFrame(scratch []byte, t MsgType) []byte {
	return append(scratch[:0], 0, 0, 0, 0, byte(t)) //isi:allow-alloc(grows the caller's scratch to the frames it sends, then reuses it)
}

// EndFrame closes the frame BeginFrame started at frame[0].
//
//isi:hotpath
func EndFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
}

// AppendHello encodes a Hello payload.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.LittleEndian.AppendUint16(dst, h.Version)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Tenant)))
	return append(dst, h.Tenant...)
}

// AppendHelloAck encodes a HelloAck payload.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, a.Version)
	dst = binary.LittleEndian.AppendUint16(dst, a.Shards)
	return appendBool(dst, a.HasBuild)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendHeader(dst []byte, h ReqHeader) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, h.ID)
	dst = binary.LittleEndian.AppendUint32(dst, h.DeadlineUS)
	return append(dst, h.Flags)
}

// AppendKeyBatch encodes a KeyBatch payload (for MsgLookupBatch or
// MsgJoinBatch).
func AppendKeyBatch(dst []byte, b KeyBatch) []byte {
	dst = appendHeader(dst, b.Hdr)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Keys)))
	for _, k := range b.Keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// AppendRangeBatch encodes a RangeBatch payload.
func AppendRangeBatch(dst []byte, b RangeBatch) []byte {
	dst = appendHeader(dst, b.Hdr)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Ranges)))
	for _, r := range b.Ranges {
		dst = binary.LittleEndian.AppendUint64(dst, r.Lo)
		dst = binary.LittleEndian.AppendUint64(dst, r.Hi)
		dst = binary.LittleEndian.AppendUint32(dst, r.Limit)
	}
	return dst
}

// AppendOpBatch encodes an OpBatch payload.
func AppendOpBatch(dst []byte, b OpBatch) []byte {
	dst = appendHeader(dst, b.Hdr)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Ops)))
	for _, o := range b.Ops {
		dst = append(dst, uint8(o.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, o.Key)
		dst = binary.LittleEndian.AppendUint32(dst, o.Val)
	}
	return dst
}

// AppendResults encodes a Results payload.
func AppendResults(dst []byte, r Results) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.ID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Res)))
	for _, e := range r.Res {
		dst = binary.LittleEndian.AppendUint32(dst, e.Code)
		dst = append(dst, e.Flags)
	}
	return dst
}

// AppendJoinResults encodes a JoinResults payload.
func AppendJoinResults(dst []byte, r JoinResults) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.ID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Res)))
	for _, e := range r.Res {
		dst = binary.LittleEndian.AppendUint32(dst, e.Code)
		dst = binary.LittleEndian.AppendUint32(dst, e.Hits)
		dst = binary.LittleEndian.AppendUint64(dst, e.Agg)
		dst = append(dst, e.Flags)
	}
	return dst
}

// ResultSize and JoinResSize are the encoded record sizes of MsgResults
// and MsgJoinResults; both payloads are u64 id | u32 n | n records.
const (
	ResultSize  = 5
	JoinResSize = 17
	recordsHdr  = 12
)

// beginRecords resizes dst (reusing its backing array when it is large
// enough) to a results payload of n size-byte records with the header
// written, and returns the payload and its record column. The records
// are then written by index with putResult or putJoinRes — each exactly
// once, nothing is zeroed — which is how the server answers straight
// from a result column (or a future per op) without an intermediate
// slice.
//
//isi:hotpath
func beginRecords(dst []byte, id uint64, n, size int) (payload, recs []byte) {
	need := recordsHdr + n*size
	if cap(dst) < need {
		dst = make([]byte, need) //isi:allow-alloc(cold growth: a slot's payload buffer grows to the largest frame its connection sent)
	}
	dst = dst[:need]
	binary.LittleEndian.PutUint64(dst, id)
	binary.LittleEndian.PutUint32(dst[8:], uint32(n))
	return dst, dst[recordsHdr:]
}

//isi:hotpath
func putResult(recs []byte, i int, code uint32, flags uint8) {
	r := recs[i*ResultSize:][:ResultSize]
	binary.LittleEndian.PutUint32(r, code)
	r[4] = flags
}

//isi:hotpath
func putJoinRes(recs []byte, i int, e JoinRes) {
	r := recs[i*JoinResSize:][:JoinResSize]
	binary.LittleEndian.PutUint32(r, e.Code)
	binary.LittleEndian.PutUint32(r[4:], e.Hits)
	binary.LittleEndian.PutUint64(r[8:], e.Agg)
	r[16] = e.Flags
}

// AppendMatchChunk encodes a MatchChunk payload.
func AppendMatchChunk(dst []byte, c MatchChunk) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.ID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Matches)))
	for _, m := range c.Matches {
		dst = binary.LittleEndian.AppendUint32(dst, m.Probe)
		dst = binary.LittleEndian.AppendUint64(dst, m.Key)
		dst = binary.LittleEndian.AppendUint32(dst, m.Code)
		dst = binary.LittleEndian.AppendUint32(dst, m.Payload)
	}
	return dst
}

// AppendRangeChunk encodes a RangeChunk payload.
func AppendRangeChunk(dst []byte, c RangeChunk) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.ID)
	dst = binary.LittleEndian.AppendUint32(dst, c.Range)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Ents)))
	for _, e := range c.Ents {
		dst = binary.LittleEndian.AppendUint64(dst, e.Key)
		dst = binary.LittleEndian.AppendUint32(dst, e.Code)
	}
	return dst
}

// AppendRangeDone encodes a RangeDone payload.
func AppendRangeDone(dst []byte, d RangeDone) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, d.ID)
	return appendBool(dst, d.Dropped)
}

// AppendShed encodes a Shed payload.
func AppendShed(dst []byte, s Shed) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.ID)
	return append(dst, s.Reason)
}

// AppendErr encodes a MsgErr payload.
func AppendErr(dst []byte, msg string) []byte {
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// --- decoding ------------------------------------------------------

// dec is an error-latched payload cursor: a read past the end sets bad
// and returns zeros, so decoders bounds-check once at the end (fin)
// instead of at every field.
type dec struct {
	p   []byte
	off int
	bad bool
}

func (d *dec) u8() uint8 {
	if d.off+1 > len(d.p) {
		d.bad = true
		return 0
	}
	v := d.p[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.off+2 > len(d.p) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(d.p[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.off+4 > len(d.p) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.p[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.off+8 > len(d.p) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v
}

func (d *dec) bytes(n int) []byte {
	if n < 0 || d.off+n > len(d.p) {
		d.bad = true
		return nil
	}
	b := d.p[d.off : d.off+n]
	d.off += n
	return b
}

// count validates an element count against the remaining bytes at
// elemSize each — the allocation guard: a lying count can never make a
// decoder allocate more than the frame actually carries.
func (d *dec) count(n uint32, elemSize int) int {
	if int(n) > (len(d.p)-d.off)/elemSize {
		d.bad = true
		return 0
	}
	return int(n)
}

// fin reports the latched error, treating trailing garbage as
// malformed.
func (d *dec) fin() error {
	if d.bad || d.off != len(d.p) {
		return ErrMalformed
	}
	return nil
}

func (d *dec) header() ReqHeader {
	return ReqHeader{ID: d.u64(), DeadlineUS: d.u32(), Flags: d.u8()}
}

// DecodeHello decodes a MsgHello payload, checking the magic.
func DecodeHello(p []byte) (Hello, error) {
	d := dec{p: p}
	if m := d.u32(); !d.bad && m != Magic {
		return Hello{}, fmt.Errorf("%w: bad magic %#x", ErrMalformed, m)
	}
	h := Hello{Version: d.u16()}
	h.Tenant = string(d.bytes(int(d.u16())))
	return h, d.fin()
}

// DecodeHelloAck decodes a MsgHelloAck payload.
func DecodeHelloAck(p []byte) (HelloAck, error) {
	d := dec{p: p}
	a := HelloAck{Version: d.u16(), Shards: d.u16(), HasBuild: d.u8() != 0}
	return a, d.fin()
}

// DecodeKeyBatch decodes a MsgLookupBatch or MsgJoinBatch payload.
func DecodeKeyBatch(p []byte) (KeyBatch, error) {
	return DecodeKeyBatchInto(p, nil)
}

// DecodeKeyBatchInto is DecodeKeyBatch decoding into keys' backing array,
// which is replaced only when it is too small: the returned column
// aliases it, so a receiver that recycles the column decodes without
// allocating. The count is checked against the bytes present and the
// payload for trailing bytes before anything is grown or written.
//
//isi:hotpath
func DecodeKeyBatchInto(p []byte, keys []uint64) (KeyBatch, error) {
	d := dec{p: p}
	b := KeyBatch{Hdr: d.header()}
	n := d.count(d.u32(), 8)
	raw := d.bytes(8 * n)
	if err := d.fin(); err != nil {
		return b, err
	}
	if cap(keys) < n {
		keys = make([]uint64, n) //isi:allow-alloc(cold growth, bounded by the frame: n keys were just checked to be present in p)
	}
	b.Keys = keys[:n]
	for i := range b.Keys {
		b.Keys[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return b, nil
}

// DecodeRangeBatch decodes a MsgRangeBatch payload.
func DecodeRangeBatch(p []byte) (RangeBatch, error) {
	d := dec{p: p}
	b := RangeBatch{Hdr: d.header()}
	n := d.count(d.u32(), 20)
	if n > 0 {
		b.Ranges = make([]RangeReq, n)
		for i := range b.Ranges {
			b.Ranges[i] = RangeReq{Lo: d.u64(), Hi: d.u64(), Limit: d.u32()}
		}
	}
	return b, d.fin()
}

// DecodeOpBatchInto decodes a MsgOpBatch payload into ops' backing
// array, replaced only when it is too small (DecodeKeyBatchInto's
// contract): the count is checked against the bytes present and the
// payload for trailing bytes before anything is grown or written. Kinds
// decode as sent; screening them is the receiver's job.
func DecodeOpBatchInto(p []byte, ops []serve.Op) (OpBatch, error) {
	d := dec{p: p}
	b := OpBatch{Hdr: d.header()}
	n := d.count(d.u32(), opSize)
	raw := dec{p: d.bytes(opSize * n)}
	if err := d.fin(); err != nil {
		return b, err
	}
	if cap(ops) < n {
		ops = make([]serve.Op, n)
	}
	b.Ops = ops[:n]
	for i := range b.Ops {
		b.Ops[i] = serve.Op{Kind: serve.OpKind(raw.u8()), Key: raw.u64(), Val: raw.u32()}
	}
	return b, nil
}

// opSize is an op record's encoded size: u8 kind | u64 key | u32 val.
const opSize = 13

// splitRecords validates a results payload of size-byte records — the
// count against the bytes present, nothing trailing — and returns its id
// and the undecoded record column.
//
//isi:hotpath
func splitRecords(p []byte, size int) (id uint64, recs []byte, err error) {
	d := dec{p: p}
	id = d.u64()
	recs = d.bytes(size * d.count(d.u32(), size))
	return id, recs, d.fin()
}

// SplitResults validates a MsgResults payload as DecodeResults does and
// returns its id and its record column, still encoded: len(recs) /
// ResultSize records, read with ResultAt. A receiver that knows where
// the results go (the client, once the id names the call) decodes
// straight into place instead of through a []Result.
//
//isi:hotpath
func SplitResults(p []byte) (id uint64, recs []byte, err error) {
	return splitRecords(p, ResultSize)
}

// ResultAt decodes record i of a SplitResults column.
//
//isi:hotpath
func ResultAt(recs []byte, i int) Result {
	r := recs[i*ResultSize:][:ResultSize]
	return Result{Code: binary.LittleEndian.Uint32(r), Flags: r[4]}
}

// SplitJoinResults is SplitResults for a MsgJoinResults payload
// (JoinResSize-byte records, read with JoinResAt).
func SplitJoinResults(p []byte) (id uint64, recs []byte, err error) {
	return splitRecords(p, JoinResSize)
}

// JoinResAt decodes record i of a SplitJoinResults column.
func JoinResAt(recs []byte, i int) JoinRes {
	r := recs[i*JoinResSize:][:JoinResSize]
	return JoinRes{
		Code:  binary.LittleEndian.Uint32(r),
		Hits:  binary.LittleEndian.Uint32(r[4:]),
		Agg:   binary.LittleEndian.Uint64(r[8:]),
		Flags: r[16],
	}
}

// DecodeResults decodes a MsgResults payload.
func DecodeResults(p []byte) (Results, error) {
	id, recs, err := SplitResults(p)
	r := Results{ID: id}
	if n := len(recs) / ResultSize; err == nil && n > 0 {
		r.Res = make([]Result, n)
		for i := range r.Res {
			r.Res[i] = ResultAt(recs, i)
		}
	}
	return r, err
}

// DecodeJoinResults decodes a MsgJoinResults payload.
func DecodeJoinResults(p []byte) (JoinResults, error) {
	id, recs, err := SplitJoinResults(p)
	r := JoinResults{ID: id}
	if n := len(recs) / JoinResSize; err == nil && n > 0 {
		r.Res = make([]JoinRes, n)
		for i := range r.Res {
			r.Res[i] = JoinResAt(recs, i)
		}
	}
	return r, err
}

// DecodeMatchChunk decodes a MsgMatchChunk payload.
func DecodeMatchChunk(p []byte) (MatchChunk, error) {
	d := dec{p: p}
	c := MatchChunk{ID: d.u64()}
	n := d.count(d.u32(), 20)
	if n > 0 {
		c.Matches = make([]MatchRec, n)
		for i := range c.Matches {
			c.Matches[i] = MatchRec{Probe: d.u32(), Key: d.u64(), Code: d.u32(), Payload: d.u32()}
		}
	}
	return c, d.fin()
}

// DecodeRangeChunk decodes a MsgRangeChunk payload.
func DecodeRangeChunk(p []byte) (RangeChunk, error) {
	d := dec{p: p}
	c := RangeChunk{ID: d.u64(), Range: d.u32()}
	n := d.count(d.u32(), 12)
	if n > 0 {
		c.Ents = make([]RangeEnt, n)
		for i := range c.Ents {
			c.Ents[i] = RangeEnt{Key: d.u64(), Code: d.u32()}
		}
	}
	return c, d.fin()
}

// DecodeRangeDone decodes a MsgRangeDone payload.
func DecodeRangeDone(p []byte) (RangeDone, error) {
	d := dec{p: p}
	r := RangeDone{ID: d.u64(), Dropped: d.u8() != 0}
	return r, d.fin()
}

// DecodeShed decodes a MsgShed payload.
func DecodeShed(p []byte) (Shed, error) {
	d := dec{p: p}
	s := Shed{ID: d.u64(), Reason: d.u8()}
	return s, d.fin()
}

// DecodeErr decodes a MsgErr payload.
func DecodeErr(p []byte) (string, error) {
	d := dec{p: p}
	msg := string(d.bytes(int(d.u16())))
	return msg, d.fin()
}

// --- frame reading -------------------------------------------------

// FrameReader reads frames off a stream, reusing one buffer: the
// payload returned by Next is valid only until the following call.
type FrameReader struct {
	r   io.Reader
	buf []byte
	max int
}

// NewFrameReader wraps r (the caller supplies any buffering; max <= 0
// takes DefaultMaxFrame).
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	return &FrameReader{r: r, max: max}
}

// Next reads one frame and returns its type and payload (aliasing the
// reader's buffer). io.EOF at a frame boundary is a clean end of
// stream; a partial frame is io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (MsgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, ErrMalformed
	}
	if int64(n) > int64(fr.max) {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return MsgType(fr.buf[0]), fr.buf[1:], nil
}
