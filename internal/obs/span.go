package obs

import (
	"sync"
	"time"
)

// This file is the span recorder: fixed-capacity ring buffers of
// lifecycle events, one ring per shard (plus one service-level ring for
// admission-side events), each stamping a batch's passage through the
// system — admit → enqueue → drain-start → kernel-done → complete —
// and the epoch machinery's merge/install events. Recording is allocation-free (one struct copy into a
// pre-sized ring under a ring-local mutex — the writer is almost always
// the single owning shard goroutine, so the lock is uncontended) and
// nil-safe, so call sites gate on a single pointer check. Readers copy
// the ring without stopping the writers: Snapshot holds the ring's own
// mutex for one memcpy, never any shard queue or service lock.

// SpanKind is a lifecycle event type.
type SpanKind uint8

const (
	// SpanAdmit: a batch entered the service (point batches at group-commit
	// seal, vectorized/range batches at submission). N is the batch size.
	SpanAdmit SpanKind = iota
	// SpanEnqueue: a shard's segment of the batch was queued. N is the
	// segment size.
	SpanEnqueue
	// SpanDrainStart: the shard dequeued the segment and began draining.
	SpanDrainStart
	// SpanKernelDone: the interleaved kernel (or write apply) finished.
	// Arg is the busy time in nanoseconds.
	SpanKernelDone
	// SpanComplete: every future/segment slot of the message completed.
	// Arg is the number of dropped requests.
	SpanComplete
	// SpanMergeStart: a freeze started merging the frozen generation
	// into the shard's column, a step per applied write. Batch is the
	// target epoch sequence, N the frozen generation's size, Arg the
	// merge's output bound.
	SpanMergeStart
	// SpanMergeDone: the merge's last step ran on the shard, which
	// installs the result at once. Arg is the merged column length.
	SpanMergeDone
	// SpanInstall: the shard installed the merged epoch. Batch is the
	// epoch sequence, Arg the install pause in nanoseconds.
	SpanInstall
	// SpanAccept: a network front-end accepted a connection. N is the
	// live connection count after the accept.
	SpanAccept
	// SpanDecode: a request frame was decoded off a connection. N is the
	// op count, Arg the frame's payload bytes.
	SpanDecode
	// SpanRespond: a response frame was handed to a connection's writer.
	// N is the item count, Arg the frame's payload bytes.
	SpanRespond
	nSpanKinds
)

var spanKindNames = [nSpanKinds]string{
	"admit", "enqueue", "drain-start", "kernel-done", "complete",
	"merge-start", "merge-done", "install",
	"accept", "decode", "respond",
}

// String names the event.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// MarshalJSON encodes the kind as its name, so snapshots read without a
// decoder ring.
func (k SpanKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Span is one recorded lifecycle event. Batch correlates the events of
// one admission across rings (a service-wide id for request batches, the
// epoch sequence for epoch events); N and Arg are kind-specific (see the
// SpanKind constants).
type Span struct {
	Seq   uint64   `json:"seq"` // per-ring monotone sequence
	T     int64    `json:"t"`   // unix nanoseconds
	Kind  SpanKind `json:"kind"`
	Shard int32    `json:"shard"` // -1 for service-level events
	Batch uint64   `json:"batch"`
	N     int32    `json:"n"`
	Arg   int64    `json:"arg"`
}

// SpanRing is a fixed-capacity event ring. A nil *SpanRing is a valid
// no-op recorder, so disabled observation costs one pointer check.
type SpanRing struct {
	mu   sync.Mutex
	buf  []Span
	next uint64 // total events ever recorded
}

// NewSpanRing returns a ring retaining the last capacity events
// (minimum 16).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 16 {
		capacity = 16
	}
	return &SpanRing{buf: make([]Span, capacity)}
}

// Record appends one event, overwriting the oldest when full. Safe for
// concurrent writers (a front-end's connections share its ring) and
// against Snapshot; allocation-free; no-op on a nil ring.
//
//isi:hotpath
func (r *SpanRing) Record(kind SpanKind, shard int, batch uint64, n int, arg int64) {
	if r == nil {
		return
	}
	t := time.Now().UnixNano()
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = Span{
		Seq: r.next, T: t, Kind: kind, Shard: int32(shard), Batch: batch, N: int32(n), Arg: arg,
	}
	r.next++
	r.mu.Unlock()
}

// Recorded returns the total number of events ever recorded (including
// those the ring has since overwritten). Zero on a nil ring.
func (r *SpanRing) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Snapshot copies the retained events oldest-first into into[:0]
// (allocating only when into lacks capacity) and returns the slice.
// Readers never block writers beyond the copy itself. Nil result on a
// nil ring.
func (r *SpanRing) Snapshot(into []Span) []Span {
	if r == nil {
		return nil
	}
	into = into[:0]
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	cap64 := uint64(len(r.buf))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	for s := start; s < n; s++ {
		into = append(into, r.buf[s%cap64])
	}
	return into
}
