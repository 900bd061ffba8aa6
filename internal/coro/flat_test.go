package coro

import "testing"

// countFrame suspends `remaining` times, then returns 100+i.
type countFrame struct {
	i, remaining int
	pin          *int // stands in for what a real frame references
}

func (f *countFrame) Step() (int, bool) {
	if f.remaining > 0 {
		f.remaining--
		return 0, false
	}
	return 100 + f.i, true
}

// TestDrainFlatContract drives one FlatSlots through batches of every
// shape — n around the group, group beyond n and non-positive, growth
// past the first size — with starts declined at the head, mid-stream, the
// tail, everywhere and nowhere: every input is offered to start exactly
// once and in order, every accepted one reaches sink exactly once with
// its own result, no declined one does, at most min(group, n) frames are
// in flight, and no frame keeps a reference once the drain returns.
func TestDrainFlatContract(t *testing.T) {
	var fs FlatSlots[countFrame]
	pinned := 0
	for _, tc := range []struct {
		name    string
		decline func(i, n int) bool
	}{
		{"none", func(i, n int) bool { return false }},
		{"head", func(i, n int) bool { return i < 3 }},
		{"mid", func(i, n int) bool { return i%3 == 1 }},
		{"tail", func(i, n int) bool { return i >= n-2 }},
		{"all", func(i, n int) bool { return true }},
	} {
		for _, group := range []int{-2, 0, 1, 2, 3, 6, 17} {
			eff := max(group, 1)
			for _, n := range []int{0, 1, eff - 1, eff, eff + 1, 4*eff + 3} {
				offered, inFlight := 0, 0
				got := map[int]int{}
				DrainFlat(&fs, n, group,
					func(f *countFrame, i int) bool {
						if i != offered {
							t.Fatalf("%s g=%d n=%d: start(%d), want %d", tc.name, group, n, i, offered)
						}
						offered++
						if tc.decline(i, n) {
							return false
						}
						if inFlight++; inFlight > min(eff, n) {
							t.Fatalf("%s g=%d n=%d: %d frames in flight", tc.name, group, n, inFlight)
						}
						*f = countFrame{i: i, remaining: (i * 7) % 5, pin: &pinned}
						return true
					},
					func(i, r int) {
						inFlight--
						if _, dup := got[i]; dup || tc.decline(i, n) || r != 100+i {
							t.Fatalf("%s g=%d n=%d: sink(%d, %d) (dup=%v)", tc.name, group, n, i, r, dup)
						}
						got[i] = r
					})
				want := 0
				for i := 0; i < n; i++ {
					if !tc.decline(i, n) {
						want++
					}
				}
				if offered != max(n, 0) || len(got) != want {
					t.Fatalf("%s g=%d n=%d: offered %d, delivered %d of %d", tc.name, group, n, offered, len(got), want)
				}
				for s := range fs.slots {
					if fs.slots[s].frame.pin != nil {
						t.Fatalf("%s g=%d n=%d: slot %d still references its batch", tc.name, group, n, s)
					}
				}
			}
		}
	}
	if len(fs.slots) != 17 {
		t.Fatalf("slots grew to %d, want the largest group 17", len(fs.slots))
	}
}

// BenchmarkDrainFlatResume is BenchmarkSchedulerInterleaved's counterpart:
// a frame that touches no memory, so ns/resume is the scheduler alone.
func BenchmarkDrainFlatResume(b *testing.B) {
	const lookups, steps, group = 1024, 8, 16
	var fs FlatSlots[countFrame]
	sum := 0
	for i := 0; i < b.N; i++ {
		DrainFlat(&fs, lookups, group,
			func(f *countFrame, i int) bool { *f = countFrame{remaining: steps - 1}; return true },
			func(_, r int) { sum += r })
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lookups*steps), "ns/resume")
}
