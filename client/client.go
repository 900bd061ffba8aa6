// Package client is the remote binding of the serve service: Remote
// speaks the internal/wire protocol to a cmd/isiserved server and
// exposes the same typed-Op surface as serve.Service — point
// Submit/Go/Lookup/Join/Insert/Delete, vectorized GoBatch/JoinBatch/
// ApplyBatch, and streaming Range/RangeBatch — returning the same
// serve.Result/JoinResult/Match/RangeEntry types, so a workload driver
// binds to either with one code path.
//
// A Remote multiplexes requests over a fixed set of connections
// (round-robin per request). Point submissions coalesce client-side, and
// only there: each connection keeps one open op column, which point ops
// of every kind join. There is no timer (Nagle's rule, RFC 896): the
// column flies as one op frame when it fills, at once when none of the
// connection's coalesced frames is unanswered, and otherwise when the
// response to the one in flight arrives. A lone op therefore flies
// alone and at once, and under load ops gather behind the frame in
// flight. The server admits the frame as one column, as ApplyBatch
// admits one in process — the same frame Remote.ApplyBatch sends — and
// adds no wait of its own. A misused op
// (OpRange, an unknown kind, a join against a server without a build
// side, an insert of NotFound) panics at submission as it does in
// process, so it never reaches a frame shared with valid ops.
//
// Deadlines: a vectorized or range call's ctx deadline travels in the
// request header and is enforced server-side (drops surface exactly as
// in-process: Dropped results, Dropped() counts). Point ops coalesce
// across callers, so a point ctx is checked at submission — an already-
// cancelled ctx completes locally with a Dropped result, matching the
// in-process drop shape — but a deadline expiring mid-flight does not
// cancel a point op remotely.
package client

import (
	"errors"
	"fmt"
	"time"
)

// ErrShed reports a request the server refused unserved (tenant quota,
// overload backpressure, or a request that failed validation). The
// server's ShedClosed reason surfaces as serve.ErrClosed instead, so
// shutdown races look the same as in-process.
var ErrShed = errors.New("client: request shed by server")

// ShedError wraps ErrShed with the server's reason code (wire.Shed*).
type ShedError struct{ Reason uint8 }

func (e *ShedError) Error() string {
	return fmt.Sprintf("client: request shed by server (reason %d)", e.Reason)
}

// Is makes errors.Is(err, ErrShed) match any ShedError.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// Option configures Dial.
type Option func(*config)

type config struct {
	conns       int
	tenant      string
	coalesceMax int
	dialTimeout time.Duration
	maxFrame    int
	snapshot    bool
}

// WithConns sets how many connections the Remote multiplexes over
// (default 1).
func WithConns(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.conns = n
		}
	}
}

// WithTenant sets the tenant identity sent in the handshake (default
// "default"); the server accounts quotas and shed counters per tenant.
func WithTenant(name string) Option {
	return func(c *config) { c.tenant = name }
}

// WithCoalesce caps client-side point coalescing: a connection's open
// op column flies at maxOps ops at the latest (default 64), and earlier
// when the frame in flight before it is answered. maxOps 1 sends every
// point op as a frame of its own.
func WithCoalesce(maxOps int) Option {
	return func(c *config) {
		if maxOps > 0 {
			c.coalesceMax = maxOps
		}
	}
}

// WithSnapshotReads makes every read this Remote submits (point and
// vectorized lookups and joins, the reads of an ApplyBatch column, and
// ranges) fly with the wire snapshot flag: the server pins each frame's
// reads to the atomic-write horizon at admission, so a cross-shard
// ApplyBatchAtomic is observed all-or-none (the remote twin of
// serve.WithSnapshotReads). Writes are unaffected.
func WithSnapshotReads(on bool) Option {
	return func(c *config) { c.snapshot = on }
}

// WithDialTimeout bounds each connection's dial+handshake (default 10s).
func WithDialTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

func defaultConfig() config {
	return config{
		conns:       1,
		tenant:      "default",
		coalesceMax: 64,
		dialTimeout: 10 * time.Second,
	}
}

// Stats is the client-observed traffic summary.
type Stats struct {
	Conns   int
	Ops     uint64 // ops completed with a served result
	Dropped uint64 // ops completing with a Dropped result
	Shed    uint64 // ops refused by the server (MsgShed)
	FramesIn, FramesOut,
	BytesIn, BytesOut uint64
	// Wait quantiles over point+vector completions, submit→complete.
	P50, P99 time.Duration
}
