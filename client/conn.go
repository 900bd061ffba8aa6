package client

import (
	"bufio"
	"context"
	"fmt"
	"iter"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// call kinds: which request frame a call flies as.
const (
	ckLookup = iota // lookup key column
	ckJoin          // join key column
	ckOps           // op column: coalesced point ops, ApplyBatch
	ckRange         // range column
)

// call is one in-flight request frame: registered under its wire id
// until the terminal response (Results / JoinResults / RangeDone /
// Shed) closes done. Streamed frames (match and range chunks)
// accumulate into it along the way; only the owning connection's read
// loop writes these fields before done closes, so readers wait on done
// and then read without locks.
type call struct {
	kind  int
	start time.Time
	n     int

	keys []uint64   // key columns: submitted key order
	ops  []serve.Op // op and range columns: submitted op order

	res     []serve.Result
	jres    []serve.JoinResult
	matches []serve.Match
	ents    [][]serve.RangeEntry
	dropped int
	rdrop   bool // range batch incomplete
	pt      bool // a coalesced point column: its answer opens the window
	err     error
	done    chan struct{}
}

func (c *call) complete() { close(c.done) }

// dropAll marks every op of the call dropped (the result shape a shard
// gives an op it never probed).
func (c *call) dropAll() {
	c.res = make([]serve.Result, c.n)
	for i := range c.res {
		c.res[i] = serve.Result{Code: serve.NotFound, Dropped: true}
	}
	if c.kind == ckJoin || c.kind == ckOps {
		c.jres = make([]serve.JoinResult, c.n)
		for i := range c.jres {
			c.jres[i] = serve.JoinResult{Code: serve.NotFound, Dropped: true}
		}
	}
	c.rdrop = c.kind == ckRange
	c.dropped = c.n
}

// failAll completes the call as refused: every result dropped, err set.
func (c *call) failAll(err error) {
	c.err = err
	c.dropAll()
	c.complete()
}

// Future is one in-flight remote point request (the client twin of
// serve.Future): an index into its coalesced op frame's result column.
type Future struct {
	c   *call
	idx int
}

// Wait blocks until the request completes and returns its result.
func (f *Future) Wait() serve.Result {
	<-f.c.done
	return f.c.res[f.idx]
}

// WaitJoin blocks until the request completes and returns the join
// outcome (GoJoin futures only).
func (f *Future) WaitJoin() serve.JoinResult {
	<-f.c.done
	if f.c.jres == nil {
		return serve.JoinResult{Code: serve.NotFound, Dropped: true}
	}
	return f.c.jres[f.idx]
}

// Err blocks until the request completes: serve.ErrClosed if the remote
// (or the service behind it) is closed, a ShedError if the server
// refused the frame, nil otherwise.
func (f *Future) Err() error {
	<-f.c.done
	return f.c.err
}

// BatchFuture is one in-flight vectorized remote submission (the client
// twin of serve.BatchFuture). As in process, the submitted slice is
// never reordered: Keys()[i] is the i-th submitted key and results
// align with it.
type BatchFuture struct{ c *call }

// Wait blocks until the batch completes and returns per-key results,
// aligned with Keys().
func (bf *BatchFuture) Wait() []serve.Result {
	<-bf.c.done
	return bf.c.res
}

// WaitJoin blocks until the batch completes and returns per-key join
// outcomes (JoinBatch only).
func (bf *BatchFuture) WaitJoin() []serve.JoinResult {
	<-bf.c.done
	return bf.c.jres
}

// Err blocks until the batch completes; see Future.Err.
func (bf *BatchFuture) Err() error {
	<-bf.c.done
	return bf.c.err
}

// Done returns a channel closed at completion.
func (bf *BatchFuture) Done() <-chan struct{} { return bf.c.done }

// Keys returns the submitted keys in submission order.
func (bf *BatchFuture) Keys() []uint64 { return bf.c.keys }

// Ops returns an op column's ops in submission order.
func (bf *BatchFuture) Ops() []serve.Op { return bf.c.ops }

// Dropped reports how many of the batch's ops completed dropped.
func (bf *BatchFuture) Dropped() int {
	<-bf.c.done
	return bf.c.dropped
}

// Matches streams the batch's join matches in arrival order (grouped as
// the server's shards completed them). Iteration blocks until the batch
// completes; Probe indexes Keys().
func (bf *BatchFuture) Matches() iter.Seq[serve.Match] {
	return func(yield func(serve.Match) bool) {
		<-bf.c.done
		for _, m := range bf.c.matches {
			if !yield(m) {
				return
			}
		}
	}
}

// RangeFuture is one in-flight remote range batch (the client twin of
// serve.RangeFuture).
type RangeFuture struct{ c *call }

// Wait blocks until the batch completes.
func (rf *RangeFuture) Wait() { <-rf.c.done }

// Done returns a channel closed at completion.
func (rf *RangeFuture) Done() <-chan struct{} { return rf.c.done }

// Err blocks until the batch completes; see Future.Err.
func (rf *RangeFuture) Err() error {
	<-rf.c.done
	return rf.c.err
}

// Ops returns the submitted range ops in submission order.
func (rf *RangeFuture) Ops() []serve.Op { return rf.c.ops }

// Dropped blocks until the batch completes and reports whether any part
// of it was dropped (the entry streams may be incomplete).
func (rf *RangeFuture) Dropped() bool {
	<-rf.c.done
	return rf.c.rdrop
}

// Entries streams range r's entries in ascending key order. Iteration
// blocks until the batch completes.
func (rf *RangeFuture) Entries(r int) iter.Seq[serve.RangeEntry] {
	return func(yield func(serve.RangeEntry) bool) {
		<-rf.c.done
		if r < 0 || r >= len(rf.c.ents) {
			return
		}
		for _, e := range rf.c.ents[r] {
			if !yield(e) {
				return
			}
		}
	}
}

// Collect gathers range r's entries into a slice.
func (rf *RangeFuture) Collect(r int) []serve.RangeEntry {
	var out []serve.RangeEntry
	for e := range rf.Entries(r) {
		out = append(out, e)
	}
	return out
}

// Remote is a client binding to one wire server, multiplexing requests
// round-robin over its connections. See the package comment for the
// semantics it shares with serve.Service.
type Remote struct {
	cfg      config
	conns    []*cconn
	rr       atomic.Uint64
	shards   int
	hasBuild bool // the server admits joins (from the handshake)
	closed   atomic.Bool

	ops, dropped, shed  atomic.Uint64
	framesIn, framesOut atomic.Uint64
	bytesIn, bytesOut   atomic.Uint64
	wait                obs.Histogram
}

// Dial connects and handshakes every connection; any failure closes the
// ones already up.
func Dial(addr string, opts ...Option) (*Remote, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	r := &Remote{cfg: cfg}
	for i := 0; i < cfg.conns; i++ {
		c, err := r.dialConn(addr)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

func (r *Remote) dialConn(addr string) (*cconn, error) {
	nc, err := net.DialTimeout("tcp", addr, r.cfg.dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &cconn{
		r:       r,
		nc:      nc,
		pending: make(map[uint64]*call),
	}

	// Handshake synchronously before the read loop owns the stream.
	nc.SetDeadline(time.Now().Add(r.cfg.dialTimeout))
	hello := func(dst []byte, _ wire.ReqHeader) []byte {
		return wire.AppendHello(dst, wire.Hello{Version: wire.Version, Tenant: r.cfg.tenant})
	}
	if err := c.writeFrame(wire.MsgHello, wire.ReqHeader{}, hello); err != nil {
		nc.Close()
		return nil, err
	}
	fr := wire.NewFrameReader(bufio.NewReaderSize(nc, 64<<10), r.cfg.maxFrame)
	t, p, err := fr.Next()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake read: %w", err)
	}
	switch t {
	case wire.MsgHelloAck:
		ack, err := wire.DecodeHelloAck(p)
		if err != nil {
			nc.Close()
			return nil, err
		}
		r.shards, r.hasBuild = int(ack.Shards), ack.HasBuild
	case wire.MsgErr:
		msg, _ := wire.DecodeErr(p)
		nc.Close()
		return nil, fmt.Errorf("client: server refused handshake: %s", msg)
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake reply %v", t)
	}
	nc.SetDeadline(time.Time{})

	c.fr = fr
	go c.readLoop()
	return c, nil
}

// Shards reports the server's partition count (from the handshake).
func (r *Remote) Shards() int { return r.shards }

// Close closes every connection and fails whatever is still in flight
// with serve.ErrClosed, point ops still in an open column included.
// Like serve.Service.Close it is a shutdown, not a drain: callers
// wanting every result wait on their futures first.
func (r *Remote) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, c := range r.conns {
		c.nc.Close()
	}
	return nil
}

// Quiesce blocks until every in-flight request completes, point ops in
// an open column included (the remote analogue of serve.Close's drain —
// but the Remote stays usable). Callers must have stopped submitting; a
// concurrent submitter can keep the pending set non-empty forever.
func (r *Remote) Quiesce(ctx context.Context) error {
	// Each connection's read loop closes drain waiters as its pending set
	// empties, so the wait is a pure notification — no polling timers, no
	// worst-case 1ms of added latency per spin. An open column always has
	// a coalesced frame pending ahead of it, whose answer flies it.
	for _, c := range r.conns {
		select {
		case <-c.drained():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Stats snapshots client-observed traffic.
func (r *Remote) Stats() Stats {
	return Stats{
		Conns:     len(r.conns),
		Ops:       r.ops.Load(),
		Dropped:   r.dropped.Load(),
		Shed:      r.shed.Load(),
		FramesIn:  r.framesIn.Load(),
		FramesOut: r.framesOut.Load(),
		BytesIn:   r.bytesIn.Load(),
		BytesOut:  r.bytesOut.Load(),
		P50:       time.Duration(r.wait.Quantile(0.50)),
		P99:       time.Duration(r.wait.Quantile(0.99)),
	}
}

func (r *Remote) pick() *cconn {
	return r.conns[int(r.rr.Add(1))%len(r.conns)]
}

// readFlags returns the request-header flags for read frames
// (ReqFlagSnapshot when the Remote was dialed WithSnapshotReads).
func (r *Remote) readFlags() uint8 {
	if r.cfg.snapshot {
		return wire.ReqFlagSnapshot
	}
	return 0
}

// finish folds one completed call into the client stats.
func (r *Remote) finish(c *call) {
	if c.err != nil {
		r.shed.Add(uint64(c.n))
	} else {
		r.ops.Add(uint64(c.n))
		r.dropped.Add(uint64(c.dropped))
	}
	r.wait.ObserveN(time.Since(c.start).Nanoseconds(), uint64(max(c.n, 1)))
	c.complete()
}

// localDrop completes a call client-side as all-dropped (an already-
// cancelled ctx at submission — the in-process paths drop those at
// drain with the same result shape, without an error).
func (r *Remote) localDrop(c *call) {
	c.dropAll()
	r.finish(c)
}

// deadlineUS converts a ctx deadline to the wire header's relative
// microseconds (0 = none). ok=false means the deadline already passed.
func deadlineUS(ctx context.Context) (uint32, bool) {
	if ctx == nil {
		return 0, true
	}
	if ctx.Err() != nil {
		return 0, false
	}
	dl, has := ctx.Deadline()
	if !has {
		return 0, true
	}
	us := time.Until(dl).Microseconds()
	if us <= 0 {
		return 0, false
	}
	if us > int64(^uint32(0)) {
		return 0, true // effectively unbounded
	}
	return uint32(us), true
}

// --- point surface -------------------------------------------------

// Submit admits one asynchronous typed point operation; see
// serve.Service.Submit for semantics, misuse panics included. The op
// joins the connection's open op column and flies as part of one op
// frame.
func (r *Remote) Submit(ctx context.Context, op serve.Op) *Future {
	r.checkOp(op)
	if closed := r.closed.Load(); closed || ctx != nil && ctx.Err() != nil {
		c := &call{kind: ckOps, n: 1, start: time.Now(), done: make(chan struct{})}
		if closed {
			c.failAll(serve.ErrClosed) // the refusal serve gives after Close
		} else {
			r.localDrop(c)
		}
		return &Future{c: c}
	}
	return r.pick().enqueue(op)
}

// checkOp panics on a misused op as serve.Service's admission does: an
// unknown kind, OpRange (Range/RangeBatch only), a join against a server
// without a build side, an insert of the NotFound sentinel. Refusing it
// here keeps one bad op from getting the valid ops coalesced with it
// shed by the server's screen.
func (r *Remote) checkOp(op serve.Op) {
	switch op.Kind {
	case serve.OpLookup, serve.OpDelete:
	case serve.OpJoin:
		if !r.hasBuild {
			panic("client: OpJoin on a server without a build side")
		}
	case serve.OpInsert:
		if op.Val == serve.NotFound {
			panic("client: OpInsert value collides with the NotFound sentinel")
		}
	case serve.OpRange:
		panic("client: OpRange requires Range/RangeBatch admission")
	default:
		panic("client: unknown op kind " + op.Kind.String())
	}
}

// Go submits one asynchronous lookup.
func (r *Remote) Go(ctx context.Context, key uint64) *Future {
	return r.Submit(ctx, serve.Op{Kind: serve.OpLookup, Key: key})
}

// Lookup is the synchronous wrapper around Go.
func (r *Remote) Lookup(ctx context.Context, key uint64) serve.Result {
	return r.Go(ctx, key).Wait()
}

// GoJoin submits one asynchronous join probe.
func (r *Remote) GoJoin(ctx context.Context, key uint64) *Future {
	return r.Submit(ctx, serve.Op{Kind: serve.OpJoin, Key: key})
}

// Join is the synchronous wrapper around GoJoin.
func (r *Remote) Join(ctx context.Context, key uint64) serve.JoinResult {
	return r.GoJoin(ctx, key).WaitJoin()
}

// Insert submits one asynchronous upsert.
func (r *Remote) Insert(ctx context.Context, key uint64, val uint32) *Future {
	return r.Submit(ctx, serve.Op{Kind: serve.OpInsert, Key: key, Val: val})
}

// Delete submits one asynchronous delete.
func (r *Remote) Delete(ctx context.Context, key uint64) *Future {
	return r.Submit(ctx, serve.Op{Kind: serve.OpDelete, Key: key})
}

// --- vectorized surface --------------------------------------------

// SubmitBatch admits one vectorized read column; see
// serve.Service.SubmitBatch. The client never reorders keys: results
// align with the submission order.
func (r *Remote) SubmitBatch(ctx context.Context, kind serve.OpKind, keys []uint64) *BatchFuture {
	if kind.IsWrite() {
		panic("client: SubmitBatch of write kind " + kind.String() + " (use ApplyBatch)")
	}
	if kind != serve.OpLookup && kind != serve.OpJoin {
		panic("client: SubmitBatch of kind " + kind.String())
	}
	ck, mt := ckLookup, wire.MsgLookupBatch
	if kind == serve.OpJoin {
		ck, mt = ckJoin, wire.MsgJoinBatch
	}
	c := &call{kind: ck, n: len(keys), start: time.Now(), keys: keys, done: make(chan struct{})}
	if r.closed.Load() {
		c.failAll(serve.ErrClosed)
		return &BatchFuture{c: c}
	}
	us, ok := deadlineUS(ctx)
	if !ok {
		r.localDrop(c)
		return &BatchFuture{c: c}
	}
	r.pick().submit(c, mt, wire.ReqHeader{DeadlineUS: us, Flags: r.readFlags()}, func(dst []byte, h wire.ReqHeader) []byte {
		return wire.AppendKeyBatch(dst, wire.KeyBatch{Hdr: h, Keys: keys})
	})
	return &BatchFuture{c: c}
}

// GoBatch submits a whole lookup column.
func (r *Remote) GoBatch(ctx context.Context, keys []uint64) *BatchFuture {
	return r.SubmitBatch(ctx, serve.OpLookup, keys)
}

// JoinBatch submits a whole join-probe column, with streamed matches.
func (r *Remote) JoinBatch(ctx context.Context, keys []uint64) *BatchFuture {
	return r.SubmitBatch(ctx, serve.OpJoin, keys)
}

// ApplyBatch admits one op column — any mix of the kinds Submit accepts
// — as one op frame; see serve.Service.ApplyBatch. Results align with
// the submission order, and the server executes the column's ops on each
// key in that order, so a read observes every earlier write to its key
// in the column. Joins answer with their aggregates (WaitJoin); no
// matches stream for an op column. A Remote dialed WithSnapshotReads
// pins the column's reads, as serve's ApplyBatch does under
// serve.WithSnapshotReads.
func (r *Remote) ApplyBatch(ctx context.Context, ops []serve.Op) *BatchFuture {
	for _, op := range ops {
		r.checkOp(op)
	}
	return r.applyBatch(ctx, ops, r.readFlags())
}

// ApplyBatchAtomic admits one vectorized write column with cross-shard
// atomicity; see serve.Service.ApplyBatchAtomic (read kinds panic). The
// frame flies with the wire atomic flag, so the server installs it as
// one all-or-none batch, and snapshot-pinned readers observe either
// every op or none.
func (r *Remote) ApplyBatchAtomic(ctx context.Context, ops []serve.Op) *BatchFuture {
	for _, op := range ops {
		if !op.Kind.IsWrite() {
			panic("client: ApplyBatchAtomic of read kind " + op.Kind.String())
		}
		r.checkOp(op)
	}
	return r.applyBatch(ctx, ops, wire.ReqFlagAtomic)
}

func (r *Remote) applyBatch(ctx context.Context, ops []serve.Op, flags uint8) *BatchFuture {
	c := &call{kind: ckOps, n: len(ops), start: time.Now(), ops: ops, done: make(chan struct{})}
	if r.closed.Load() {
		c.failAll(serve.ErrClosed)
		return &BatchFuture{c: c}
	}
	us, ok := deadlineUS(ctx)
	if !ok {
		r.localDrop(c)
		return &BatchFuture{c: c}
	}
	r.pick().submitOps(c, wire.ReqHeader{DeadlineUS: us, Flags: flags})
	return &BatchFuture{c: c}
}

// --- range surface -------------------------------------------------

// Range submits one range scan; see serve.Service.Range.
func (r *Remote) Range(ctx context.Context, lo, hi uint64, limit int) *RangeFuture {
	return r.RangeBatch(ctx, []serve.Op{serve.RangeOp(lo, hi, limit)})
}

// RangeBatch submits a column of range scans; see
// serve.Service.RangeBatch. Entries(i) streams the i-th submitted
// range's entries.
func (r *Remote) RangeBatch(ctx context.Context, ops []serve.Op) *RangeFuture {
	reqs := make([]wire.RangeReq, len(ops))
	for i, op := range ops {
		if op.Kind != serve.OpRange {
			panic("client: RangeBatch of kind " + op.Kind.String())
		}
		// The wire limit is 32 bits, 0 unbounded: a wider limit clamps to
		// the widest one rather than wrapping to a small or zero cap.
		limit := min(uint64(max(op.Limit, 0)), math.MaxUint32)
		reqs[i] = wire.RangeReq{Lo: op.Key, Hi: op.Hi, Limit: uint32(limit)}
	}
	c := &call{
		kind: ckRange, n: len(ops), start: time.Now(), ops: ops,
		ents: make([][]serve.RangeEntry, len(ops)),
		done: make(chan struct{}),
	}
	if r.closed.Load() {
		c.failAll(serve.ErrClosed)
		return &RangeFuture{c: c}
	}
	us, ok := deadlineUS(ctx)
	if !ok {
		r.localDrop(c)
		return &RangeFuture{c: c}
	}
	r.pick().submit(c, wire.MsgRangeBatch, wire.ReqHeader{DeadlineUS: us, Flags: r.readFlags()}, func(dst []byte, h wire.ReqHeader) []byte {
		return wire.AppendRangeBatch(dst, wire.RangeBatch{Hdr: h, Ranges: reqs})
	})
	return &RangeFuture{c: c}
}

// --- connection ----------------------------------------------------

// cconn is one client connection: a synchronous write path (a mutex
// over a recycled encode buffer, one socket write per frame), a read
// loop resolving responses to pending calls, and a point-op coalescer:
// one open op column, which point ops of every kind join.
type cconn struct {
	r  *Remote
	nc net.Conn

	wmu sync.Mutex
	enc []byte // the frame being written; guarded by wmu

	fr  *wire.FrameReader
	seq atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]*call
	// dead is set, with pending swept, once the read loop has exited:
	// nothing will resolve a call registered after that, so submit
	// refuses it instead.
	dead bool
	// taken counts calls out of pending whose completion has not yet
	// settled, and sealed point columns not yet registered; waiters are
	// Quiesce registrations, channels closed (and cleared) once pending
	// is empty and nothing taken is unsettled. Guarded by pmu.
	taken   int
	waiters []chan struct{}
	// open is the forming point column its futures point at (nil when
	// none), and unanswered counts sealed point columns whose answer has
	// not been taken. Guarded by pmu.
	open       *call
	unanswered int
}

// encRetain caps the encode buffer a connection keeps between frames.
const encRetain = 1 << 20

// drained returns a channel closed when the connection has no in-flight
// requests (closed immediately if it already has none).
func (c *cconn) drained() <-chan struct{} {
	ch := make(chan struct{})
	c.pmu.Lock()
	if len(c.pending) == 0 && c.taken == 0 {
		c.pmu.Unlock()
		close(ch)
		return ch
	}
	c.waiters = append(c.waiters, ch)
	c.pmu.Unlock()
	return ch
}

// take removes id's call from the pending set. The caller completes it
// and then settles it, so a Quiesce woken by the drain never finds a
// call it waited for still incomplete. Taking a point column's answer
// may fly the open column.
func (c *cconn) take(id uint64) *call {
	c.pmu.Lock()
	cl := c.pending[id]
	var sealed *call
	if cl != nil {
		delete(c.pending, id)
		c.taken++
		if cl.pt {
			sealed = c.answeredLocked(1)
		}
	}
	c.pmu.Unlock()
	c.sendAsync(sealed)
	return cl
}

// settle retires n completed taken calls and, once nothing is pending
// or unsettled, closes (and clears) the drain waiters.
func (c *cconn) settle(n int) {
	c.pmu.Lock()
	c.taken -= n
	if len(c.pending) == 0 && c.taken == 0 {
		for _, ch := range c.waiters {
			close(ch)
		}
		c.waiters = nil
	}
	c.pmu.Unlock()
}

func (c *cconn) peek(id uint64) *call {
	c.pmu.Lock()
	cl := c.pending[id]
	c.pmu.Unlock()
	return cl
}

// writeFrame builds one frame in the connection's encode buffer — body
// appends the payload, under h for a request — and writes it to the
// socket in one call. The frame is counted before the write, so its
// response can never be counted in Stats ahead of it.
//
//isi:hotpath
func (c *cconn) writeFrame(t wire.MsgType, h wire.ReqHeader, body func([]byte, wire.ReqHeader) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := body(wire.BeginFrame(c.enc, t), h)
	wire.EndFrame(b)
	c.enc = b
	if cap(b) > encRetain {
		c.enc = nil
	}
	c.r.framesOut.Add(1)
	c.r.bytesOut.Add(uint64(len(b)))
	_, err := c.nc.Write(b)
	return err
}

// submit registers cl under a fresh id and ships its request frame. A
// connection whose read loop has exited, or a failed write, refuses the
// call with serve.ErrClosed.
//
//isi:hotpath
func (c *cconn) submit(cl *call, t wire.MsgType, h wire.ReqHeader, body func([]byte, wire.ReqHeader) []byte) {
	h.ID = c.seq.Add(1)
	c.pmu.Lock()
	dead := c.dead
	var sealed *call
	if !dead {
		c.pending[h.ID] = cl
	} else if cl.pt {
		sealed = c.answeredLocked(1)
	}
	c.pmu.Unlock()
	c.sendAsync(sealed) //isi:allow-alloc(refusal path: the connection is gone)
	if !dead {
		if c.writeFrame(t, h, body) == nil {
			return
		}
		if cl = c.take(h.ID); cl == nil {
			return // the read loop's sweep refused it first
		}
	}
	c.r.shed.Add(uint64(cl.n))
	cl.failAll(serve.ErrClosed) //isi:allow-alloc(refusal path: the connection is gone)
	if !dead {
		c.settle(1)
	}
}

// submitOps ships an op column call as one MsgOpBatch frame.
func (c *cconn) submitOps(cl *call, h wire.ReqHeader) {
	c.submit(cl, wire.MsgOpBatch, h, func(dst []byte, h wire.ReqHeader) []byte {
		return wire.AppendOpBatch(dst, wire.OpBatch{Hdr: h, Ops: cl.ops})
	})
}

// readLoop resolves response frames until the stream dies, then fails
// whatever is still pending.
func (c *cconn) readLoop() {
	for {
		t, p, err := c.fr.Next()
		if err != nil {
			c.failPending()
			return
		}
		c.r.framesIn.Add(1)
		c.r.bytesIn.Add(uint64(5 + len(p)))
		if !c.handle(t, p) {
			c.nc.Close()
			c.failPending()
			return
		}
	}
}

// failPending marks the connection dead and refuses every pending call;
// the open point column, if any, follows through submit's refusal.
func (c *cconn) failPending() {
	c.pmu.Lock()
	c.dead = true
	calls := make([]*call, 0, len(c.pending))
	pts := 0
	for id, cl := range c.pending {
		calls = append(calls, cl)
		delete(c.pending, id)
		if cl.pt {
			pts++
		}
	}
	c.taken += len(calls)
	sealed := c.answeredLocked(pts)
	c.pmu.Unlock()
	c.sendAsync(sealed)
	for _, cl := range calls {
		c.r.shed.Add(uint64(cl.n))
		cl.failAll(serve.ErrClosed)
	}
	c.settle(len(calls))
}

// handle resolves one response frame; false kills the connection.
func (c *cconn) handle(t wire.MsgType, p []byte) bool {
	switch t {
	case wire.MsgResults:
		return c.handleResults(p)
	case wire.MsgJoinResults:
		id, recs, err := wire.SplitJoinResults(p)
		if err != nil {
			return false
		}
		cl := c.take(id)
		if cl == nil {
			return true
		}
		n := len(recs) / wire.JoinResSize
		cl.res = make([]serve.Result, n)
		cl.jres = make([]serve.JoinResult, n)
		for i := range cl.jres {
			e := wire.JoinResAt(recs, i)
			cl.res[i] = fromWireResult(wire.Result{Code: e.Code, Flags: e.Flags})
			cl.jres[i] = serve.JoinResult{Code: e.Code, Hits: e.Hits, Agg: e.Agg, Dropped: cl.res[i].Dropped}
			if cl.res[i].Dropped {
				cl.dropped++
			}
		}
		c.r.finish(cl)
		c.settle(1)
	case wire.MsgMatchChunk:
		ch, err := wire.DecodeMatchChunk(p)
		if err != nil {
			return false
		}
		if cl := c.peek(ch.ID); cl != nil {
			for _, m := range ch.Matches {
				cl.matches = append(cl.matches, serve.Match{Probe: int(m.Probe), Key: m.Key, Code: m.Code, Payload: m.Payload})
			}
		}
	case wire.MsgRangeChunk:
		ch, err := wire.DecodeRangeChunk(p)
		if err != nil {
			return false
		}
		if cl := c.peek(ch.ID); cl != nil && int(ch.Range) < len(cl.ents) {
			for _, e := range ch.Ents {
				cl.ents[ch.Range] = append(cl.ents[ch.Range], serve.RangeEntry{Key: e.Key, Code: e.Code})
			}
		}
	case wire.MsgRangeDone:
		d, err := wire.DecodeRangeDone(p)
		if err != nil {
			return false
		}
		cl := c.take(d.ID)
		if cl == nil {
			return true
		}
		cl.rdrop = d.Dropped
		if d.Dropped {
			cl.dropped = cl.n
		}
		c.r.finish(cl)
		c.settle(1)
	case wire.MsgShed:
		s, err := wire.DecodeShed(p)
		if err != nil {
			return false
		}
		cl := c.take(s.ID)
		if cl == nil {
			return true
		}
		// Counted before completion, so a waiter reads its own shed.
		c.r.shed.Add(uint64(cl.n))
		if s.Reason == wire.ShedClosed {
			cl.failAll(serve.ErrClosed)
		} else {
			cl.failAll(&ShedError{Reason: s.Reason})
		}
		c.settle(1)
	case wire.MsgErr:
		return false
	default:
		return false
	}
	return true
}

// handleResults resolves a MsgResults frame: the records are validated
// in place and decoded straight into the call's result column.
//
//isi:hotpath
func (c *cconn) handleResults(p []byte) bool {
	id, recs, err := wire.SplitResults(p)
	if err != nil {
		return false
	}
	cl := c.take(id)
	if cl == nil {
		return true
	}
	cl.res = make([]serve.Result, len(recs)/wire.ResultSize) //isi:allow-alloc(the result column the caller receives, one per frame)
	for i := range cl.res {
		cl.res[i] = fromWireResult(wire.ResultAt(recs, i))
		if cl.res[i].Dropped {
			cl.dropped++
		}
	}
	c.r.finish(cl)
	c.settle(1)
	return true
}

//isi:hotpath
func fromWireResult(e wire.Result) serve.Result {
	return serve.Result{
		Code:    e.Code,
		Found:   e.Flags&wire.FlagFound != 0,
		Dropped: e.Flags&wire.FlagDropped != 0,
	}
}

// --- point coalescing ----------------------------------------------

// window is how many of a connection's point columns may be unanswered
// while its open column still flies with its first op (Nagle's rule,
// RFC 896).
const window = 1

// enqueue adds one point op to the open column, returning its future.
// The column flies when it reaches WithCoalesce's cap, at once while
// fewer than window point columns are unanswered, and otherwise when
// taking an answer opens the window; there is no timer.
func (c *cconn) enqueue(op serve.Op) *Future {
	c.pmu.Lock()
	if c.open == nil {
		c.open = &call{kind: ckOps, pt: true, start: time.Now(), done: make(chan struct{})}
	}
	f := &Future{c: c.open, idx: c.open.n}
	c.open.ops = append(c.open.ops, op)
	c.open.n++
	var sealed *call
	if c.open.n >= c.r.cfg.coalesceMax || c.unanswered < window {
		sealed, c.open = c.open, nil
		c.unanswered++
	}
	c.pmu.Unlock()
	if sealed != nil {
		c.submitOps(sealed, wire.ReqHeader{Flags: c.r.readFlags()})
	}
	return f
}

// answeredLocked retires n point columns that will get no further
// answer (answered, shed, or refused with the connection) and seals the
// open column once the window has room, counting it as taken until
// sendAsync has registered it.
func (c *cconn) answeredLocked(n int) *call {
	c.unanswered -= n
	sealed := c.open
	if sealed == nil || c.unanswered >= window {
		return nil
	}
	c.open = nil
	c.unanswered++
	c.taken++
	return sealed
}

// sendAsync flies a column answeredLocked sealed from a goroutine of its
// own. Its callers include the read loop, which must never write to the
// socket: a client blocked on a write stops reading, and the server
// stops reading once its slots fill.
func (c *cconn) sendAsync(cl *call) {
	if cl != nil {
		go func() {
			c.submitOps(cl, wire.ReqHeader{Flags: c.r.readFlags()})
			c.settle(1)
		}()
	}
}
