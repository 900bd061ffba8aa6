package serve

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/native"
)

// boundWorld is a bare shard with rebuilds on, driven through applyOp on
// the test goroutine: no service, no shard goroutine, no queue, so a
// merge advances only by the writes the test applies, and a freeze
// needs nothing but the shard. oracle is the committed key → code map,
// pending the uncommitted atomic batch's writes.
type boundWorld struct {
	t       *testing.T
	sh      *shard
	oracle  map[uint64]uint32
	pending map[uint64]uint32
	seq     uint64 // the open atomic batch's seq; 0 = none open
	probe   []uint64
	out     []Result
	freezes int
	frozen  []writeEntry // the frozen generation last seen, held so its address stays unique
}

// boundBase is the column length: large enough that a merge takes many
// writes' steps at the thresholds below.
const boundBase = 4096

func newBoundWorld(t *testing.T, threshold int) *boundWorld {
	return newBoundWorldN(t, boundBase, threshold)
}

// newBoundWorldN is newBoundWorld over an n-key column: keys 0, 4, 8, …
// with codes 0, 1, 2, ….
func newBoundWorldN(t *testing.T, n, threshold int) *boundWorld {
	table, codes := make([]uint64, n), make([]uint32, n)
	w := &boundWorld{t: t, oracle: map[uint64]uint32{}, pending: map[uint64]uint32{}}
	for i := range table {
		table[i], codes[i] = uint64(4*i), uint32(i)
		w.oracle[table[i]] = codes[i]
		if i%61 == 0 {
			w.probe = append(w.probe, table[i], table[i]+1)
		}
	}
	sh := &shard{ctl: newController(Config{}), met: &shardMetrics{}, rebuildAt: threshold, hz: new(atomic.Uint64), pins: &pinSet{}}
	sh.pins.init()
	top := native.Sample(table)
	ep := &epochState{idx: newIndex(table, codes, top, nil), cols: colSet{keys: table, codes: codes, top: top}}
	sh.epoch.Store(ep)
	sh.retained = []*epochState{ep}
	w.sh = sh
	return w
}

// write applies one plain write, and insert one insert into the open
// atomic batch; each checks the bound after it.
func (w *boundWorld) write(key uint64, val uint32, del bool) {
	w.t.Helper()
	if del {
		w.sh.applyOp(Op{Kind: OpDelete, Key: key}, 0)
		delete(w.oracle, key)
	} else {
		w.sh.applyOp(Op{Kind: OpInsert, Key: key, Val: val}, 0)
		w.oracle[key] = val
	}
	w.check(key)
}

func (w *boundWorld) insert(key uint64, val uint32) {
	w.t.Helper()
	w.sh.applyOp(Op{Kind: OpInsert, Key: key, Val: val}, w.seq)
	w.pending[key] = val
	w.check(key)
}

// check asserts the bound after a write to key: at most one frozen
// generation, every merge finished by its own steps before the next
// freeze (no write stall, and one installed epoch per freeze but the one
// in flight), and lookups at the commit horizon through viewAt equal to
// the oracle.
func (w *boundWorld) check(key uint64) {
	w.t.Helper()
	if !slices.Contains(w.probe, key) {
		w.probe = append(w.probe, key)
	}
	sh := w.sh
	if sh.frozen != nil && (w.frozen == nil || &sh.frozen[0] != &w.frozen[0]) {
		w.freezes++
		w.frozen = sh.frozen
	}
	st := sh.met.snapshot(0)
	inFlight := 0
	if sh.frozen != nil {
		inFlight = 1
	}
	switch {
	case st.FrozenGens > 1 || st.FrozenGens != inFlight:
		w.t.Fatalf("write %d: %d frozen generations (in flight %d)", key, st.FrozenGens, inFlight)
	case st.WriteStalls != 0:
		w.t.Fatalf("write %d: a freeze found the previous merge unfinished (%d stalls, %d freezes)", key, st.WriteStalls, w.freezes)
	case sh.epoch.Load().seq != uint64(w.freezes-inFlight):
		w.t.Fatalf("write %d: epoch %d after %d freezes, %d in flight", key, sh.epoch.Load().seq, w.freezes, inFlight)
	}
	ep, dv := sh.viewAt(sh.hz.Load())
	if cap(w.out) < len(w.probe) {
		w.out = make([]Result, len(w.probe), 2*len(w.probe))
	}
	out := w.out[:len(w.probe)]
	ep.idx.lookupBatch(dv, w.probe, 4, out)
	for i, k := range w.probe {
		want := Result{Code: NotFound}
		if v, ok := w.oracle[k]; ok {
			want = Result{Code: v, Found: true}
		}
		if out[i] != want {
			w.t.Fatalf("after write %d: lookup(%d) = %+v, want %+v", key, k, out[i], want)
		}
	}
}

// open starts an atomic batch; commit makes its writes visible.
func (w *boundWorld) open() { w.seq = w.sh.hz.Load() + 1 }

func (w *boundWorld) commit() {
	w.sh.hz.Store(w.seq)
	maps.Copy(w.oracle, w.pending)
	clear(w.pending)
	w.seq = 0
}

// TestMergeBoundNoGoroutines drives a bare shard's applyOp directly — no
// shard goroutine, so no idle step ever helps a merge along — and checks
// after every write that the merge a freeze starts ends by the write
// that could trigger the next freeze, whatever the schedule: with plain
// writes; with atomic writes left uncommitted across a freeze (0 < u <
// T, where the step must grow to ⌈m / (T − u)⌉); and in the degenerate
// u ≥ T case, where a whole merge runs on the next write.
func TestMergeBoundNoGoroutines(t *testing.T) {
	for _, threshold := range []int{1, 2, 8, 16} {
		t.Run(fmt.Sprintf("T=%d", threshold), func(t *testing.T) {
			w := newBoundWorld(t, threshold)
			fresh := uint64(1) // odd keys are absent from the column
			next := func() uint64 { fresh += 2; return fresh }
			// Plain writes: fresh inserts, upserts and deletes of column
			// keys.
			for i := 0; i < 20*threshold+40; i++ {
				switch i % 5 {
				case 3:
					w.write(uint64(4*(i*37%boundBase)), uint32(90000+i), false)
				case 4:
					w.write(uint64(4*(i*53%boundBase)), 0, true)
				default:
					w.write(next(), uint32(i), false)
				}
			}
			// Atomic writes left uncommitted across freezes, u from 1 to
			// T − 1, each followed by enough fresh plain writes for two
			// more freezes.
			for u := 1; u < threshold; u++ {
				w.open()
				for range u {
					w.insert(next(), uint32(u))
				}
				for range 2*threshold + 1 {
					w.write(next(), 7, false)
				}
				w.commit()
			}
			// u ≥ T: the live delta restarts at or over the threshold, so
			// every freeze's merge must finish on the next write.
			w.open()
			for range threshold + 2 {
				w.insert(next(), 8)
			}
			for range 3 * threshold {
				w.write(next(), 9, false)
			}
			w.commit()
			for range 2 * threshold {
				w.write(next(), 10, false)
			}
			if w.freezes < 3 {
				t.Fatalf("only %d freezes", w.freezes)
			}
		})
	}
}
