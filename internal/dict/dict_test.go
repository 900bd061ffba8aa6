package dict

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
)

func newEngine() *memsim.Engine { return memsim.New(memsim.TinyConfig()) }

func TestMainLocateExtractRoundTrip(t *testing.T) {
	e := newEngine()
	// Values 10, 20, 30, ... (sorted, distinct).
	n := 3000
	m := NewMainVirtual(e, n, func(i int) uint64 { return uint64(i+1) * 10 })
	for _, code := range []uint32{0, 1, 17, 2999} {
		v := m.Extract(e, code)
		if got := m.Locate(e, v); got != code {
			t.Fatalf("Locate(Extract(%d)) = %d", code, got)
		}
	}
	// Absent values: below, between, above.
	for _, v := range []uint64{0, 5, 15, 25, 30001} {
		if got := m.Locate(e, v); got != NotFound {
			t.Fatalf("Locate(%d) = %d, want NotFound", v, got)
		}
	}
}

func TestMainLocateAllSequentialVsInterleaved(t *testing.T) {
	e := newEngine()
	n := 5000
	m := NewMainVirtual(e, n, func(i int) uint64 { return uint64(i) * 3 })
	rng := rand.New(rand.NewPCG(1, 2))
	values := make([]uint64, 800)
	for i := range values {
		values[i] = rng.Uint64N(uint64(n * 3))
	}
	seq := make([]uint32, len(values))
	m.LocateAll(e, values, seq)
	for _, g := range []int{1, 4, 6, 16} {
		inter := make([]uint32, len(values))
		m.LocateAllInterleaved(e, values, g, inter)
		for i := range values {
			if inter[i] != seq[i] {
				t.Fatalf("group %d: value %d → %d (interleaved) vs %d (sequential)", g, values[i], inter[i], seq[i])
			}
		}
	}
}

func TestMainEmpty(t *testing.T) {
	e := newEngine()
	m := NewMain(e, nil)
	if m.Locate(e, 5) != NotFound {
		t.Fatal("empty Main located a value")
	}
	out := make([]uint32, 1)
	m.LocateAllInterleaved(e, []uint64{5}, 4, out)
	if out[0] != NotFound {
		t.Fatal("empty Main interleaved locate")
	}
}

func TestNewMainRejectsUnsorted(t *testing.T) {
	e := newEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMain(e, []uint64{3, 1, 2})
}

func TestDeltaInsertLocateExtract(t *testing.T) {
	e := newEngine()
	d := NewDelta(e, 1000)
	// Insert shuffled values; codes are append positions.
	rng := rand.New(rand.NewPCG(3, 4))
	vals := make([]uint64, 500)
	for i := range vals {
		vals[i] = uint64(i) * 7
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for i, v := range vals {
		code, added := d.Insert(v)
		if !added || code != uint32(i) {
			t.Fatalf("Insert(%d) = (%d,%v), want (%d,true)", v, code, added, i)
		}
	}
	// Duplicate insert returns the existing code.
	code, added := d.Insert(vals[42])
	if added || code != 42 {
		t.Fatalf("duplicate Insert = (%d,%v)", code, added)
	}
	if d.Len() != 500 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i, v := range vals {
		if got := d.Locate(e, v); got != uint32(i) {
			t.Fatalf("Locate(%d) = %d, want %d", v, got, i)
		}
		if got := d.Extract(e, uint32(i)); got != v {
			t.Fatalf("Extract(%d) = %d, want %d", i, got, v)
		}
	}
	if d.Locate(e, 3) != NotFound {
		t.Fatal("located absent value")
	}
}

func TestBulkDeltaMatchesInserts(t *testing.T) {
	e := newEngine()
	rng := rand.New(rand.NewPCG(5, 6))
	vals := make([]uint64, 2000)
	for i := range vals {
		vals[i] = uint64(i) * 11
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })

	bulk := BulkDelta(e, vals)
	if err := bulk.Tree().Check(); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got := bulk.Locate(e, v); got != uint32(i) {
			t.Fatalf("bulk Locate(%d) = %d, want %d", v, got, i)
		}
	}
}

func TestDeltaLocateAllInterleavedMatchesSequential(t *testing.T) {
	e := newEngine()
	rng := rand.New(rand.NewPCG(7, 8))
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(i) * 2
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	d := BulkDelta(e, vals)

	probes := make([]uint64, 500)
	for i := range probes {
		probes[i] = rng.Uint64N(6100)
	}
	seq := make([]uint32, len(probes))
	d.LocateAll(e, probes, seq)
	inter := make([]uint32, len(probes))
	d.LocateAllInterleaved(e, probes, 6, inter)
	for i := range probes {
		if seq[i] != inter[i] {
			t.Fatalf("probe %d: seq %d vs inter %d", probes[i], seq[i], inter[i])
		}
	}
}

func TestDictionariesAgreeProperty(t *testing.T) {
	// Main over sorted values and Delta over a shuffle of the same values
	// must locate every value to mutually consistent codes:
	// main.Extract(main.Locate(v)) == delta.Extract(delta.Locate(v)) == v.
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 10
		e := memsim.New(memsim.TinyConfig())
		sorted := make([]uint64, n)
		for i := range sorted {
			sorted[i] = uint64(i) * 5
		}
		m := NewMain(e, sorted)
		shuffled := append([]uint64(nil), sorted...)
		rng := rand.New(rand.NewPCG(seed, seed+9))
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		d := BulkDelta(e, shuffled)

		for trial := 0; trial < 30; trial++ {
			v := rng.Uint64N(uint64(n*5 + 3))
			mc, dc := m.Locate(e, v), d.Locate(e, v)
			if (mc == NotFound) != (dc == NotFound) {
				return false
			}
			if mc != NotFound {
				if m.Extract(e, mc) != v || d.Extract(e, dc) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaCapacityPanic(t *testing.T) {
	e := newEngine()
	d := NewDelta(e, 2)
	d.Insert(1)
	d.Insert(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected capacity panic")
		}
	}()
	d.Insert(3)
}
