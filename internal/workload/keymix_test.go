package workload

import "testing"

func TestKeyMixDeterministicAndBounded(t *testing.T) {
	const max = 1000
	a := NewKeyMix(7, max, 0.5, 1.2)
	b := NewKeyMix(7, max, 0.5, 1.2)
	for i := 0; i < 10000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("draw %d: same seed diverged (%d vs %d)", i, x, y)
		}
		if x < 0 || x >= max {
			t.Fatalf("draw %d: index %d out of [0,%d)", i, x, max)
		}
	}
}

func TestKeyMixZipfSkew(t *testing.T) {
	const max = 1 << 20
	m := NewKeyMix(3, max, 1.0, 1.3)
	const draws = 20000
	low := 0
	for i := 0; i < draws; i++ {
		if m.Next() < max/100 {
			low++
		}
	}
	// Pure Zipf(1.3) concentrates most mass far below max/100; uniform
	// would put ~1% there.
	if low < draws/2 {
		t.Fatalf("only %d/%d zipf draws in the bottom 1%% of the domain — not skewed", low, draws)
	}
}

func TestKeyMixUniformSpread(t *testing.T) {
	const max = 10
	m := NewKeyMix(5, max, 0, 0)
	seen := map[int]int{}
	for i := 0; i < 5000; i++ {
		seen[m.Next()]++
	}
	for v := 0; v < max; v++ {
		if seen[v] == 0 {
			t.Fatalf("uniform mix never drew %d: %v", v, seen)
		}
	}
}
