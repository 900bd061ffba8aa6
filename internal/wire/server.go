package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Server is the network front-end over one serve.Service: it accepts
// many concurrent connections, validates and admits their request
// frames into the service's existing admission paths, and streams
// responses back per connection. Admission control happens here, before
// the service sees the work: a per-tenant token bucket and a
// server-wide in-flight cap refuse (shed) whole request frames with a
// MsgShed rather than queueing unboundedly, and every shed is folded
// into the service's Stats.DroppedShed via Service.Shed.
//
// Point-shaped frames (lookup and write batches below
// Config.CoalesceBelow ops) are admitted through Service.Submit, so
// small requests from many connections coalesce into the service's
// group-commit batches — the cross-connection batching that makes the
// interleaved probe kernels worth driving over a network. Larger frames
// go through the vectorized paths (SubmitBatchScatter/ApplyBatch), joins
// always (their matches stream back in MsgMatchChunk frames as shard
// segments complete), ranges always through RangeBatch (entries stream
// in MsgRangeChunk frames off the lazy k-way merge).
type Server struct {
	svc *serve.Service
	cfg Config

	ring *obs.SpanRing // "wire" ring; nil when the service has no observer

	connsLive  obs.Gauge
	connsTotal obs.Counter
	framesIn   obs.Counter
	framesOut  obs.Counter
	bytesIn    obs.Counter
	bytesOut   obs.Counter
	decodeErrs obs.Counter

	inflight atomic.Int64
	connSeq  atomic.Uint64
	closed   atomic.Bool

	mu      sync.Mutex
	lns     map[net.Listener]struct{}
	conns   map[*conn]struct{}
	tenants map[string]*tenant

	wg sync.WaitGroup
}

// Config shapes the server's admission control and framing.
type Config struct {
	// MaxFrame caps an inbound frame's encoded length (default
	// DefaultMaxFrame).
	MaxFrame int
	// CoalesceBelow routes lookup/write frames with fewer ops through
	// point admission (Service.Submit), letting the group-commit batcher
	// coalesce them across connections; frames at or above it use the
	// vectorized batch paths. Default 64.
	CoalesceBelow int
	// MaxInflight caps admitted-but-unanswered ops server-wide; beyond it
	// frames are shed with ShedOverload. Default 1<<20.
	MaxInflight int
	// TenantRate is each tenant's sustained admission rate in ops/sec
	// (<= 0 disables quotas); TenantBurst the bucket depth (default
	// max(TenantRate, 1024)).
	TenantRate  float64
	TenantBurst float64
	// ChunkSize bounds streamed match/range-entry chunks (default 1024
	// records per frame).
	ChunkSize int
	// OutboundQueue is the per-connection response queue depth (default
	// 256 frames).
	OutboundQueue int
	// HandshakeTimeout bounds the wait for a connection's Hello (default
	// 10s).
	HandshakeTimeout time.Duration
}

func (c *Config) fill() {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.CoalesceBelow <= 0 {
		c.CoalesceBelow = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1 << 20
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = max(c.TenantRate, 1024)
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 1024
	}
	if c.OutboundQueue <= 0 {
		c.OutboundQueue = 256
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
}

// tenant is one tenant's admission state: a token bucket refilled at
// Config.TenantRate, plus its request/shed counters (registered as
// wire_reqs{tenant=...} / wire_sheds{tenant=...} when the service
// carries an observer).
type tenant struct {
	reqs  obs.Counter
	sheds obs.Counter

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take spends n tokens, refilling first; a bucket too dry for the whole
// frame refuses it atomically (no partial admission).
func (t *tenant) take(n int, rate, burst float64) bool {
	if rate <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.tokens = min(burst, t.tokens+rate*now.Sub(t.last).Seconds())
	t.last = now
	if t.tokens < float64(n) {
		return false
	}
	t.tokens -= float64(n)
	return true
}

// NewServer builds a front-end over svc. Observability rides the
// service's own observer (if any): wire metrics join the same registry
// and the accept→decode→respond lifecycle lands in a "wire" span ring.
func NewServer(svc *serve.Service, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		svc:     svc,
		cfg:     cfg,
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[*conn]struct{}),
		tenants: make(map[string]*tenant),
	}
	if o := svc.Observer(); o != nil {
		r := o.Registry()
		r.RegisterGauge("wire_conns", &s.connsLive)
		r.RegisterCounter("wire_conns_total", &s.connsTotal)
		r.RegisterCounter("wire_frames_in", &s.framesIn)
		r.RegisterCounter("wire_frames_out", &s.framesOut)
		r.RegisterCounter("wire_bytes_in", &s.bytesIn)
		r.RegisterCounter("wire_bytes_out", &s.bytesOut)
		r.RegisterCounter("wire_decode_errors", &s.decodeErrs)
		s.ring = o.Ring("wire")
	}
	return s
}

// tenantFor interns one tenant's admission state.
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{tokens: s.cfg.TenantBurst, last: time.Now()}
		if o := s.svc.Observer(); o != nil {
			r := o.Registry()
			r.RegisterCounter(obs.Name("wire_reqs", "tenant", name), &t.reqs)
			r.RegisterCounter(obs.Name("wire_sheds", "tenant", name), &t.sheds)
		}
		s.tenants[name] = t
	}
	return t
}

// Serve accepts connections on ln until the listener fails or the
// server closes. Each connection gets a read loop and a writer
// goroutine; Serve itself blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.startConn(nc)
	}
}

// ErrServerClosed reports a Serve loop ended by Close.
var ErrServerClosed = errors.New("wire: server closed")

// Close stops accepting, closes every live connection, and waits for
// their goroutines. The serve.Service is not closed — that is the
// owner's call, after the front-end is quiet.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		s.wg.Wait()
		return
	}
	s.mu.Lock()
	for ln := range s.lns {
		ln.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
	s.wg.Wait()
}

func (s *Server) startConn(nc net.Conn) {
	c := &conn{
		srv:   s,
		nc:    nc,
		id:    s.connSeq.Add(1),
		out:   make(chan frame, s.cfg.OutboundQueue),
		free:  make(chan *slot, connSlots),
		wdone: make(chan struct{}),
	}
	for range connSlots {
		c.free <- new(slot)
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	live := int64(len(s.conns))
	s.mu.Unlock()
	s.connsTotal.Inc()
	s.connsLive.Set(live)
	s.ring.Record(obs.SpanAccept, -1, c.id, int(live), 0)
	s.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	live := int64(len(s.conns))
	s.mu.Unlock()
	s.connsLive.Set(live)
}

// connSlots is how many request frames one connection may have admitted
// and not yet answered. It bounds the connection's responder goroutines
// and its frame memory; a client pipelining deeper than this waits in
// the socket, which is the back-pressure.
const connSlots = 4

// slotRetain caps the response payload (5 to 17 bytes per op, so the
// whole working set with it) a slot keeps between frames: a slot that
// served a larger frame drops its buffers on the way back, so one
// outsized frame does not pin its memory for the connection's life.
const slotRetain = 1 << 19

// slot is the recycled working set of one request frame. The read loop
// takes a free slot before it decodes a request (blocking while the
// connection has connSlots in flight), the request's responder works in
// it, and the slot travels with the request's terminal response frame —
// results, shed or protocol error, whose payload is always sl.out — to
// the writer, which frees it once that frame is written or discarded.
// Buffers grow to the frames the connection actually sends.
type slot struct {
	hdr  ReqHeader
	keys []uint64 // decoded key column, wire order
	part []uint64 // the same keys grouped by shard (SubmitBatchScatter's target)
	idx  []uint32 // part[j] arrived at wire position idx[j]
	out  []byte   // terminal response payload, encoded in place
}

// begin sizes sl.out as a results payload of n size-byte records and
// returns the record column to fill.
//
//isi:hotpath
func (sl *slot) begin(n, size int) []byte {
	var recs []byte
	sl.out, recs = beginRecords(sl.out, sl.hdr.ID, n, size)
	return recs
}

// frame is one queued outbound frame; sl is the request slot a terminal
// response returns to the connection once written (nil on handshake and
// streamed chunk frames, whose payloads are their own allocations).
type frame struct {
	t  MsgType
	p  []byte
	sl *slot
}

// conn is one client connection: a read loop that takes a slot per
// request frame, decodes and admits it and starts its responder — so at
// most connSlots requests are in flight — and a writer goroutine
// draining the outbound queue with batched flushes and freeing the slots.
type conn struct {
	srv    *Server
	nc     net.Conn
	id     uint64
	tenant *tenant
	out    chan frame
	free   chan *slot    // slots not in use, connSlots in all
	wdone  chan struct{} // writeLoop exited

	resp sync.WaitGroup // responders in flight
}

// send queues one slotless frame (handshake replies, streamed chunks).
func (c *conn) send(t MsgType, payload []byte) {
	c.out <- frame{t: t, p: payload}
}

// writeLoop drains queued response frames to the socket: one buffered
// write per frame, one flush per burst. A frame's slot is free again as
// soon as its payload has been copied out — or skipped, once the socket
// has failed. Per-frame work is allocation-free; the buffer and closure
// below are per-connection setup.
//
//isi:hotpath
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer close(c.wdone)
	w := bufio.NewWriterSize(c, 64<<10) //isi:allow-alloc(one 64KB write buffer per connection, at writer start)
	failed := false
	//isi:allow-alloc(one closure per connection at writer start, not per frame)
	write := func(f frame) {
		if !failed {
			if err := WriteFrame(w, f.t, f.p); err != nil {
				failed = true
			} else {
				c.srv.framesOut.Inc()
			}
		}
		if f.sl != nil {
			if cap(f.sl.out) > slotRetain {
				*f.sl = slot{}
			}
			c.free <- f.sl
		}
	}
	for f := range c.out {
		write(f)
		// Drain whatever else is queued before paying the flush: one
		// syscall per burst, not per frame.
	drain:
		for {
			select {
			case f, ok := <-c.out:
				if !ok {
					break drain
				}
				write(f)
			default:
				break drain
			}
		}
		if !failed && w.Flush() != nil {
			failed = true
		}
	}
}

func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		// Give in-flight responses a bounded chance to reach the peer —
		// the final MsgErr of a protocol violation, the tail frames of a
		// stream — then close. The write deadline caps how long a stuck
		// peer can hold the teardown: once it fires, the writer flips to
		// discard mode and drains the queue without blocking.
		c.nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
		c.resp.Wait() // responders still hold c.out
		close(c.out)
		<-c.wdone // writer drained (or failed past the deadline)
		c.nc.Close()
		c.srv.dropConn(c)
	}()

	// Buffered: a burst of pipelined frames costs one read, not a header
	// read and a body read each.
	fr := NewFrameReader(bufio.NewReaderSize(c, 64<<10), c.srv.cfg.MaxFrame)
	if !c.handshake(fr) {
		return
	}

	for {
		t, p, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.srv.decodeErrs.Inc()
			}
			return
		}
		c.srv.framesIn.Inc()
		if !c.dispatch(t, p) {
			return
		}
	}
}

// handshake consumes the Hello and acks it. Any violation — wrong first
// frame, bad magic, unknown version — gets a MsgErr and a closed
// connection.
func (c *conn) handshake(fr *FrameReader) bool {
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.HandshakeTimeout))
	t, p, err := fr.Next()
	if err != nil {
		return false
	}
	refuse := func(msg string) bool {
		c.send(MsgErr, AppendErr(nil, msg))
		return false
	}
	if t != MsgHello {
		return refuse("expected hello, got " + t.String())
	}
	h, err := DecodeHello(p)
	if err != nil {
		c.srv.decodeErrs.Inc()
		return refuse(err.Error())
	}
	if h.Version != Version {
		return refuse(fmt.Sprintf("unsupported protocol version %d (server speaks %d)", h.Version, Version))
	}
	name := h.Tenant
	if name == "" {
		name = "default"
	}
	if len(name) > 64 {
		return refuse("tenant name exceeds 64 bytes")
	}
	c.tenant = c.srv.tenantFor(name)
	c.nc.SetReadDeadline(time.Time{})
	c.send(MsgHelloAck, AppendHelloAck(nil, HelloAck{Version: Version, Shards: uint16(c.srv.svc.Shards())}))
	return true
}

// dispatch takes a slot for one request frame — waiting, when the
// connection already has connSlots unanswered, until the writer frees
// one — then decodes and admits the frame and starts its responder.
// From here on exactly one terminal frame carries the slot back: the
// response, a shed, or the MsgErr of a protocol violation (false: the
// connection dies).
func (c *conn) dispatch(t MsgType, p []byte) bool {
	switch t {
	case MsgLookupBatch, MsgJoinBatch:
		return c.dispatchKeys(t, p, <-c.free)
	case MsgWriteBatch:
		sl := <-c.free
		b, err := DecodeWriteBatch(p)
		if err != nil {
			return c.protoErr(sl, err)
		}
		sl.hdr = b.Hdr
		switch n := len(b.Ops); {
		case !validWrites(b.Ops):
			c.shed(sl, ShedBadRequest, n)
		case c.admit(sl, n, len(p)):
			go c.respondWrite(sl, b)
		}
	case MsgRangeBatch:
		sl := <-c.free
		b, err := DecodeRangeBatch(p)
		if err != nil {
			return c.protoErr(sl, err)
		}
		sl.hdr = b.Hdr
		switch n := len(b.Ranges); {
		case n == 0:
			sl.out = AppendRangeDone(sl.out[:0], RangeDone{ID: b.Hdr.ID})
			c.reply(sl, MsgRangeDone, 0)
		case c.admit(sl, n, len(p)):
			go c.respondRange(sl, b)
		}
	default:
		c.srv.decodeErrs.Inc()
		c.send(MsgErr, AppendErr(nil, "unexpected frame type "+t.String()))
		return false
	}
	return true
}

// dispatchKeys is dispatch for a lookup or join frame: the key column is
// decoded into the slot, not into a fresh slice. (An empty column is not
// special: it is admitted at no cost and answered with zero records.)
//
//isi:hotpath
func (c *conn) dispatchKeys(t MsgType, p []byte, sl *slot) bool {
	b, err := DecodeKeyBatchInto(p, sl.keys)
	if err != nil {
		return c.protoErr(sl, err) //isi:allow-alloc(the connection dies on this frame)
	}
	sl.hdr, sl.keys = b.Hdr, b.Keys
	join := t == MsgJoinBatch
	switch n := len(b.Keys); {
	case join && !c.srv.svc.HasBuild():
		c.shed(sl, ShedBadRequest, n)
	case !c.admit(sl, n, len(p)):
	case join:
		go c.respondJoin(sl) //isi:allow-alloc(the join arm streams match chunks, each its own payload; the lookup arm below is the pinned one)
	default:
		go c.respondLookup(sl)
	}
	return true
}

func (c *conn) protoErr(sl *slot, err error) bool {
	c.srv.decodeErrs.Inc()
	sl.out = AppendErr(sl.out[:0], err.Error())
	c.out <- frame{t: MsgErr, p: sl.out, sl: sl}
	return false
}

// validWrites screens remote write ops so invalid input is refused with
// ShedBadRequest instead of reaching serve's checkOp panics: unknown
// kinds and inserts colliding with the NotFound sentinel.
func validWrites(ops []WriteOp) bool {
	for _, o := range ops {
		if o.Kind > WriteDelete || (o.Kind == WriteInsert && o.Val == serve.NotFound) {
			return false
		}
	}
	return true
}

// admit runs the tenant quota and the server-wide in-flight cap; a
// refusal sheds the whole frame. On success the decode span is stamped,
// the responder the caller starts next is counted in c.resp, and that
// responder owes done(n).
//
//isi:hotpath
func (c *conn) admit(sl *slot, n, payloadBytes int) bool {
	if !c.tenant.take(n, c.srv.cfg.TenantRate, c.srv.cfg.TenantBurst) {
		c.shed(sl, ShedQuota, n)
		return false
	}
	if c.srv.inflight.Add(int64(n)) > int64(c.srv.cfg.MaxInflight) {
		c.srv.inflight.Add(-int64(n))
		c.shed(sl, ShedOverload, n)
		return false
	}
	c.tenant.reqs.Add(uint64(n))
	c.srv.ring.Record(obs.SpanDecode, -1, sl.hdr.ID, n, int64(payloadBytes))
	c.resp.Add(1)
	return true
}

// done retires a responder: its ops leave the in-flight count and the
// teardown stops waiting for it.
//
//isi:hotpath
func (c *conn) done(n int) {
	c.srv.inflight.Add(-int64(n))
	c.resp.Done()
}

// shed refuses sl's request unserved: the tenant's shed counter, the
// service's DroppedShed stat, and a MsgShed to the client.
//
//isi:hotpath
func (c *conn) shed(sl *slot, reason uint8, n int) {
	c.tenant.sheds.Add(uint64(max(n, 1)))
	c.srv.svc.Shed(max(n, 1))
	sl.out = AppendShed(sl.out[:0], Shed{ID: sl.hdr.ID, Reason: reason}) //isi:allow-alloc(nine bytes into the slot's payload buffer, which grows once)
	c.out <- frame{t: MsgShed, p: sl.out, sl: sl}
}

// reply stamps the respond span and queues sl's terminal response, the
// payload already encoded in sl.out.
//
//isi:hotpath
func (c *conn) reply(sl *slot, t MsgType, items int) {
	c.srv.ring.Record(obs.SpanRespond, -1, sl.hdr.ID, items, int64(len(sl.out)))
	c.out <- frame{t: t, p: sl.out, sl: sl}
}

// stream stamps the respond span and queues one chunk of a streamed
// response, ahead of the terminal frame.
func (c *conn) stream(id uint64, t MsgType, payload []byte, items int) {
	c.srv.ring.Record(obs.SpanRespond, -1, id, items, int64(len(payload)))
	c.send(t, payload)
}

// requestCtx roots a responder's context. The wire protocol carries no
// caller context across the network: the request header's relative
// deadline (0 = none) is the only cancellation that crosses the socket.
func requestCtx(deadlineUS uint32) (context.Context, context.CancelFunc) {
	//isi:allow-ctx(responder root: the remote caller's context ends at the socket)
	ctx := context.Background()
	if deadlineUS == 0 {
		return ctx, noCancel
	}
	return context.WithTimeout(ctx, time.Duration(deadlineUS)*time.Microsecond)
}

func noCancel() {}

// respondLookup serves one lookup frame. Below the coalesce threshold
// each key rides point admission — Submit feeds the group-commit
// batcher, so keys from many connections share admission batches — and
// results come back in submission order for free. At or above it, and
// for every snapshot read (which must drain as ONE pinned batch; point
// coalescing would scatter the keys across admission batches with
// different pins), the vectorized path is cheaper: the service scatters
// the decoded column into the slot's shard-grouped copy and hands back
// the permutation, and result j is encoded straight at wire position
// idx[j] of the response payload — duplicates included, each occurrence
// has its own position.
//
//isi:hotpath
func (c *conn) respondLookup(sl *slot) {
	n := len(sl.keys)
	defer c.done(n)
	ctx, cancel := requestCtx(sl.hdr.DeadlineUS) //isi:allow-alloc(a timer context only when the request carries a deadline)
	defer cancel()
	if sl.hdr.Flags&ReqFlagSnapshot == 0 && n < c.srv.cfg.CoalesceBelow {
		futs := make([]*serve.Future, n) //isi:allow-alloc(point admission: a future per key is the coalescing path's design)
		for i, k := range sl.keys {
			futs[i] = c.srv.svc.Go(ctx, k) //isi:allow-alloc(as above)
		}
		c.replyPoints(sl, futs)
		return
	}
	bf := c.scatter(ctx, serve.OpLookup, sl)
	res := bf.Wait()
	if bf.Err() != nil {
		c.shed(sl, ShedClosed, 0)
		return
	}
	recs := sl.begin(n, ResultSize)
	for j, r := range res {
		putResult(recs, int(sl.idx[j]), r.Code, resultFlags(r))
	}
	c.reply(sl, MsgResults, n)
}

// scatter admits sl's key column through the service's scatter
// admission, into the slot's shard-grouped copy and index column.
//
//isi:hotpath
func (c *conn) scatter(ctx context.Context, kind serve.OpKind, sl *slot) *serve.BatchFuture {
	n := len(sl.keys)
	if cap(sl.part) < n {
		sl.part = make([]uint64, n) //isi:allow-alloc(cold growth to the largest frame this connection sent)
		sl.idx = make([]uint32, n)  //isi:allow-alloc(cold growth, with part)
	}
	sl.part, sl.idx = sl.part[:n], sl.idx[:n]
	//isi:allow-alloc(per frame, not per key: the BatchFuture, its result column and the partition bounds)
	return c.srv.svc.SubmitBatchScatter(ctx, kind, sl.keys, sl.part, sl.idx, sl.hdr.Flags&ReqFlagSnapshot != 0)
}

// replyPoints answers a point-admitted frame: one future per op, in
// wire order.
func (c *conn) replyPoints(sl *slot, futs []*serve.Future) {
	recs := sl.begin(len(futs), ResultSize)
	for i, f := range futs {
		if f.Err() != nil {
			c.shed(sl, ShedClosed, 0)
			return
		}
		r := f.Wait()
		putResult(recs, i, r.Code, resultFlags(r))
	}
	c.reply(sl, MsgResults, len(futs))
}

// respondJoin serves one join frame through the same scatter admission,
// streaming matches in chunks as shard segments complete, then the
// per-probe aggregates. Match.Probe indexes the partitioned key order,
// so each match is re-pointed through idx at the wire position of its
// own occurrence, and aggregate j is encoded at position idx[j].
func (c *conn) respondJoin(sl *slot) {
	n := len(sl.keys)
	defer c.done(n)
	ctx, cancel := requestCtx(sl.hdr.DeadlineUS)
	defer cancel()
	id := sl.hdr.ID
	bf := c.scatter(ctx, serve.OpJoin, sl)
	chunk := make([]MatchRec, 0, c.srv.cfg.ChunkSize)
	flush := func() {
		if len(chunk) == 0 {
			return
		}
		c.stream(id, MsgMatchChunk, AppendMatchChunk(nil, MatchChunk{ID: id, Matches: chunk}), len(chunk))
		chunk = chunk[:0]
	}
	for m := range bf.Matches() {
		chunk = append(chunk, MatchRec{
			Probe:   sl.idx[m.Probe],
			Key:     m.Key,
			Code:    m.Code,
			Payload: m.Payload,
		})
		if len(chunk) >= c.srv.cfg.ChunkSize {
			flush()
		}
	}
	res := bf.WaitJoin()
	if bf.Err() != nil {
		c.shed(sl, ShedClosed, 0)
		return
	}
	flush()
	recs := sl.begin(n, JoinResSize)
	for j, r := range res {
		putJoinRes(recs, int(sl.idx[j]), toWireJoinRes(r))
	}
	c.reply(sl, MsgJoinResults, n)
}

// respondWrite serves one write frame. Below the coalesce threshold
// each op rides point admission in order, acked exactly. At or above
// it the frame goes through ApplyBatch; write acks are deterministic
// functions of the op (insert → {Val, found}, delete → {NotFound}), so
// they are synthesized in wire order rather than realigned — with one
// coarsening: ApplyBatch reports drops per batch, not per op, so a
// partially dropped vectorized write frame acks every op as dropped
// (the protocol's contract: remote writes must be idempotent to retry).
// A ReqFlagAtomic frame always goes through ApplyBatchAtomic as one
// batch, whatever its size: snapshot readers see it all-or-nothing.
func (c *conn) respondWrite(sl *slot, b WriteBatch) {
	n := len(b.Ops)
	defer c.done(n)
	ctx, cancel := requestCtx(b.Hdr.DeadlineUS)
	defer cancel()
	atomic := b.Hdr.Flags&ReqFlagAtomic != 0
	if !atomic && n < c.srv.cfg.CoalesceBelow {
		futs := make([]*serve.Future, n)
		for i, o := range b.Ops {
			if o.Kind == WriteInsert {
				futs[i] = c.srv.svc.Insert(ctx, o.Key, o.Val)
			} else {
				futs[i] = c.srv.svc.Delete(ctx, o.Key)
			}
		}
		c.replyPoints(sl, futs)
		return
	}
	ops := make([]serve.Op, n)
	for i, o := range b.Ops {
		if o.Kind == WriteInsert {
			ops[i] = serve.Op{Kind: serve.OpInsert, Key: o.Key, Val: o.Val}
		} else {
			ops[i] = serve.Op{Kind: serve.OpDelete, Key: o.Key}
		}
	}
	var bf *serve.BatchFuture
	if atomic {
		bf = c.srv.svc.ApplyBatchAtomic(ctx, ops)
	} else {
		bf = c.srv.svc.ApplyBatch(ctx, ops)
	}
	bf.Wait()
	if bf.Err() != nil {
		c.shed(sl, ShedClosed, 0)
		return
	}
	dropped := bf.Dropped() > 0
	recs := sl.begin(n, ResultSize)
	for i, o := range b.Ops {
		switch {
		case dropped:
			putResult(recs, i, serve.NotFound, FlagDropped)
		case o.Kind == WriteInsert:
			putResult(recs, i, o.Val, FlagFound)
		default:
			putResult(recs, i, serve.NotFound, 0)
		}
	}
	c.reply(sl, MsgResults, n)
}

// respondRange serves one range frame through RangeBatch, streaming
// each range's entries in ascending-key chunks off the lazy k-way
// merge, then a RangeDone carrying the batch's dropped flag.
func (c *conn) respondRange(sl *slot, b RangeBatch) {
	defer c.done(len(b.Ranges))
	ctx, cancel := requestCtx(b.Hdr.DeadlineUS)
	defer cancel()
	id := b.Hdr.ID
	ops := make([]serve.Op, len(b.Ranges))
	for i, r := range b.Ranges {
		ops[i] = serve.RangeOp(r.Lo, r.Hi, int(r.Limit))
	}
	var rf *serve.RangeFuture
	if b.Hdr.Flags&ReqFlagSnapshot != 0 {
		rf = c.srv.svc.RangeBatchAt(ctx, ops, nil)
	} else {
		rf = c.srv.svc.RangeBatch(ctx, ops)
	}
	chunk := make([]RangeEnt, 0, c.srv.cfg.ChunkSize)
	for i := range ops {
		for e := range rf.Entries(i) {
			chunk = append(chunk, RangeEnt{Key: e.Key, Code: e.Code})
			if len(chunk) >= c.srv.cfg.ChunkSize {
				c.stream(id, MsgRangeChunk,
					AppendRangeChunk(nil, RangeChunk{ID: id, Range: uint32(i), Ents: chunk}), len(chunk))
				chunk = chunk[:0]
			}
		}
		if len(chunk) > 0 {
			c.stream(id, MsgRangeChunk,
				AppendRangeChunk(nil, RangeChunk{ID: id, Range: uint32(i), Ents: chunk}), len(chunk))
			chunk = chunk[:0]
		}
	}
	rf.Wait()
	if rf.Err() != nil {
		c.shed(sl, ShedClosed, 0)
		return
	}
	sl.out = AppendRangeDone(sl.out[:0], RangeDone{ID: id, Dropped: rf.Dropped()})
	c.reply(sl, MsgRangeDone, 1)
}

//isi:hotpath
func resultFlags(r serve.Result) uint8 {
	var f uint8
	if r.Found {
		f |= FlagFound
	}
	if r.Dropped {
		f |= FlagDropped
	}
	return f
}

func toWireJoinRes(r serve.JoinResult) JoinRes {
	var f uint8
	if r.Dropped {
		f |= FlagDropped
	}
	return JoinRes{Code: r.Code, Hits: r.Hits, Agg: r.Agg, Flags: f}
}

// Read and Write are the socket as the read and write loops' bufio
// buffers see it — one call per burst — tallying wire_bytes_in and
// wire_bytes_out on the way.
//
//isi:hotpath
func (c *conn) Read(p []byte) (int, error) {
	n, err := c.nc.Read(p)
	c.srv.bytesIn.Add(uint64(max(n, 0)))
	return n, err
}

//isi:hotpath
func (c *conn) Write(p []byte) (int, error) {
	n, err := c.nc.Write(p)
	c.srv.bytesOut.Add(uint64(max(n, 0)))
	return n, err
}
