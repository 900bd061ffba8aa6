package native

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func reference(table []uint64, key uint64) int {
	idx := sort.Search(len(table), func(i int) bool { return table[i] > key }) - 1
	if idx < 0 {
		return 0
	}
	return idx
}

func TestBaselineMatchesReference(t *testing.T) {
	f := func(raw []uint64, key uint64) bool {
		if len(raw) == 0 {
			return true
		}
		table := append([]uint64(nil), raw...)
		sort.Slice(table, func(i, j int) bool { return table[i] < table[j] })
		return Baseline(table, key) == reference(table, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// searchKernels is every batch kernel built on advance. The goroutine
// backend is orders of magnitude slower per switch, so checkKernels caps
// the keys it sees.
var searchKernels = []struct {
	name string
	run  func(table, keys []uint64, group int, out []int)
}{
	{"sequential", func(table, keys []uint64, _ int, out []int) { RunSequential(table, keys, out) }},
	{"GP", RunGP},
	{"AMAC", RunAMAC},
	{"frame-direct", RunFrameDirect},
	{"coro/frame", func(table, keys []uint64, g int, out []int) { RunCoro(table, keys, g, out, Frame) }},
	{"coro/pull", func(table, keys []uint64, g int, out []int) { RunCoro(table, keys, g, out, Pull) }},
	{"coro/goroutine", func(table, keys []uint64, g int, out []int) {
		n := min(len(keys), 64)
		RunCoro(table, keys[:n], g, out[:n], Goroutine)
		RunSequential(table, keys[n:], out[n:])
	}},
	{"two-level", func(table, keys []uint64, _ int, out []int) { runTwoLevel(table, Sample(table), keys, out) }},
}

// runTwoLevel is the serving drains' two-level search run sequentially:
// the lockstep pass over the page sample, then Baseline inside the page.
func runTwoLevel(table, top, keys []uint64, out []int) {
	SampleWindows(top, keys, func(i, w int) { out[i] = w*PageKeys + Baseline(Window(table, w), keys[i]) })
}

// checkKernels runs every kernel over (table, keys) at the given group
// and compares each result with the sort.Search reference.
func checkKernels(t testing.TB, table, keys []uint64, group int) {
	t.Helper()
	for _, k := range searchKernels {
		out := make([]int, len(keys))
		k.run(table, keys, group, out)
		for i, key := range keys {
			if want := reference(table, key); out[i] != want {
				t.Fatalf("%s group=%d len(table)=%d: key[%d]=%d → %d, want %d", k.name, group, len(table), i, key, out[i], want)
			}
		}
	}
}

func TestAllVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	// A power of two, its neighbours and two unrelated sizes: the halving
	// sequence (and with it the number of levels) differs for each.
	for _, n := range []int{100000, 1 << 12, 1<<12 - 1, 1<<12 + 1, 1000} {
		table := make([]uint64, n)
		for i := range table {
			table[i] = uint64(i) * 3
		}
		keys := make([]uint64, 1000)
		for i := range keys {
			keys[i] = rng.Uint64N(uint64(n*3 + 10))
		}
		keys[0], keys[1] = 0, math.MaxUint64
		for _, group := range []int{1, 4, 8, 32} {
			checkKernels(t, table, keys, group)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	if got := Baseline([]uint64{5}, 5); got != 0 {
		t.Fatalf("single element: %d", got)
	}
	RunGP(nil, nil, 4, nil)
	RunAMAC([]uint64{1}, nil, 4, nil)
	out := make([]int, 2)
	RunCoro([]uint64{1, 2, 3, 4}, []uint64{2, 9}, 64, out, Frame)
	if out[0] != 1 || out[1] != 3 {
		t.Fatalf("out = %v", out)
	}
	// Every table size 0–9 in three value laws — distinct values, runs of
	// duplicates, and the extremes of the key type at both ends — probed
	// with every value, its neighbours, 0 and MaxUint64.
	laws := map[string]func(i, n int) uint64{
		"distinct":   func(i, n int) uint64 { return uint64(10 * (i + 1)) },
		"duplicates": func(i, n int) uint64 { return uint64(10 * (i/3 + 1)) },
		"extremes": func(i, n int) uint64 {
			switch i {
			case 0:
				return 0
			case n - 1:
				return math.MaxUint64
			}
			return uint64(10 * i)
		},
	}
	for name, law := range laws {
		for n := 0; n <= 9; n++ {
			table := make([]uint64, n)
			keys := []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}
			for i := range table {
				table[i] = law(i, n)
				keys = append(keys, table[i]-1, table[i], table[i]+1)
			}
			for _, group := range []int{1, 3, 32} {
				t.Run(fmt.Sprintf("%s/n=%d/g=%d", name, n, group), func(t *testing.T) {
					checkKernels(t, table, keys, group)
				})
			}
		}
	}
}

// FuzzSearchKernelsAgree: an arbitrary sorted table (eight bytes a value,
// duplicates kept), arbitrary keys and group through every kernel
// against sort.Search.
func FuzzSearchKernelsAgree(f *testing.F) {
	f.Add([]byte{}, []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 24), bytes.Repeat([]byte{0xff}, 8), uint8(3))
	f.Add([]byte("sixteen bytes ok"+"and eight"), []byte("probe me, twice.."), uint8(40))
	f.Fuzz(func(t *testing.T, rawTable, rawKeys []byte, group uint8) {
		words := func(raw []byte) []uint64 {
			out := make([]uint64, min(len(raw)/8, 512))
			for i := range out {
				out[i] = binary.LittleEndian.Uint64(raw[8*i:])
			}
			return out
		}
		table, keys := words(rawTable), words(rawKeys)
		slices.Sort(table)
		keys = append(keys, table...) // every present value is probed too
		checkKernels(t, table, keys, int(group))
	})
}

func TestMeasureInterleavingRunsAndIsCorrect(t *testing.T) {
	ms := MeasureInterleaving(1<<16, 500, 8, 1)
	if len(ms) != 7 {
		t.Fatalf("measurements: %d", len(ms))
	}
	for _, m := range ms {
		if !m.Correct {
			t.Fatalf("%s produced wrong results", m.Name)
		}
		if m.NsPerOp <= 0 {
			t.Fatalf("%s: ns/op = %v", m.Name, m.NsPerOp)
		}
	}
}

// Benchmarks: the real-hardware counterpart of Figure 3 (A7 in
// DESIGN.md). Run with -bench=Native to see interleaving work on this
// machine.

const benchN = 1 << 25 // 256 MB of uint64: beyond most LLCs

func benchTable() ([]uint64, []uint64) {
	table := make([]uint64, benchN)
	for i := range table {
		table[i] = uint64(i)
	}
	keys := make([]uint64, 4096)
	x := uint64(0)
	for i := range keys {
		x += 0x9e3779b97f4a7c15
		keys[i] = x % benchN
	}
	return table, keys
}

func BenchmarkNativeSequential(b *testing.B) {
	if testing.Short() {
		b.Skip("256 MB bench table; skipped under -short")
	}
	table, keys := benchTable()
	out := make([]int, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunSequential(table, keys, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/lookup")
}

func BenchmarkNativeGP(b *testing.B) {
	if testing.Short() {
		b.Skip("256 MB bench table; skipped under -short")
	}
	table, keys := benchTable()
	out := make([]int, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunGP(table, keys, 10, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/lookup")
}

func BenchmarkNativeAMAC(b *testing.B) {
	if testing.Short() {
		b.Skip("256 MB bench table; skipped under -short")
	}
	table, keys := benchTable()
	out := make([]int, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunAMAC(table, keys, 10, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/lookup")
}

func BenchmarkNativeCoroFrame(b *testing.B) {
	if testing.Short() {
		b.Skip("256 MB bench table; skipped under -short")
	}
	table, keys := benchTable()
	out := make([]int, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCoro(table, keys, 10, out, Frame)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/lookup")
}

func BenchmarkNativeFrameDirect(b *testing.B) {
	if testing.Short() {
		b.Skip("256 MB bench table; skipped under -short")
	}
	table, keys := benchTable()
	out := make([]int, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunFrameDirect(table, keys, 10, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/lookup")
}

func BenchmarkNativeCoroPull(b *testing.B) {
	if testing.Short() {
		b.Skip("256 MB bench table; skipped under -short")
	}
	table, keys := benchTable()
	out := make([]int, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCoro(table, keys, 10, out, Pull)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/lookup")
}

func BenchmarkNativeCoroGoroutine(b *testing.B) {
	if testing.Short() {
		b.Skip("256 MB bench table; skipped under -short")
	}
	table, keys := benchTable()
	// The goroutine backend is ~two orders slower; keep the batch small.
	small := keys[:256]
	out := make([]int, len(small))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunCoro(table, small, 10, out, Goroutine)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(small)), "ns/lookup")
}

// BenchmarkCoroResume* isolate the pure switch cost per backend.

func BenchmarkCoroResumeFrame(b *testing.B) {
	table := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < b.N; i++ {
		h := CoroFrameLookup(table, 5)
		for !h.Done() {
			h.Resume()
		}
	}
}

func BenchmarkCoroResumePull(b *testing.B) {
	table := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < b.N; i++ {
		h := CoroPullLookup(table, 5)
		for !h.Done() {
			h.Resume()
		}
	}
}

func BenchmarkCoroResumeGoroutine(b *testing.B) {
	table := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < b.N; i++ {
		h := GoroLookup(table, 5)
		for !h.Done() {
			h.Resume()
		}
	}
}
