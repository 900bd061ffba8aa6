package obs

import (
	"sync"
	"time"
)

// This file is the decision log: a ring of adaptive-controller moves, so
// a hill climber's optimum can be explained — which direction it walked,
// what cost evidence it saw, where it reversed — rather than only
// observed through the group-size history tail.

// Decision is one recorded controller move: at epoch boundary Epoch the
// controller walked the group size From → To (they are equal only when
// the walk pinned at a bound), having measured Cost per item over Items
// items this epoch against PrevCost the epoch before. Reversed marks
// the move as a direction flip (this epoch's cost worsened). Cost is
// wall nanoseconds of drain time per item, so the drain rate is 1/Cost
// items per nanosecond.
type Decision struct {
	Seq      uint64  `json:"seq"` // per-log monotone sequence
	T        int64   `json:"t"`   // unix nanoseconds
	Epoch    uint64  `json:"epoch"`
	From     int     `json:"from"`
	To       int     `json:"to"`
	Items    int     `json:"items"`
	Cost     float64 `json:"cost"`      // this epoch's cost per item
	PrevCost float64 `json:"prev_cost"` // previous epoch's (0 = first epoch)
	Reversed bool    `json:"reversed"`
}

// DecisionLog is a fixed-capacity ring of decisions. A nil *DecisionLog
// is a valid no-op recorder.
type DecisionLog struct {
	mu   sync.Mutex
	buf  []Decision
	next uint64
}

// NewDecisionLog returns a log retaining the last capacity decisions
// (minimum 16).
func NewDecisionLog(capacity int) *DecisionLog {
	if capacity < 16 {
		capacity = 16
	}
	return &DecisionLog{buf: make([]Decision, capacity)}
}

// Record appends one decision, filling Seq and T; allocation-free;
// no-op on a nil log.
//
//isi:hotpath
func (l *DecisionLog) Record(d Decision) {
	if l == nil {
		return
	}
	d.T = time.Now().UnixNano()
	l.mu.Lock()
	d.Seq = l.next
	l.buf[l.next%uint64(len(l.buf))] = d
	l.next++
	l.mu.Unlock()
}

// Recorded returns the total number of decisions ever recorded. Zero on
// a nil log.
func (l *DecisionLog) Recorded() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Snapshot copies the retained decisions oldest-first into into[:0] and
// returns the slice. Nil result on a nil log.
func (l *DecisionLog) Snapshot(into []Decision) []Decision {
	if l == nil {
		return nil
	}
	into = into[:0]
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	cap64 := uint64(len(l.buf))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	for s := start; s < n; s++ {
		into = append(into, l.buf[s%cap64])
	}
	return into
}
