package nativejoin

import (
	"math/rand/v2"
	"testing"
)

// reference recomputes a probe result by brute force over the inserted
// tuples.
func reference(keys []uint64, vals []uint32, probe uint64) Result {
	var r Result
	for i, k := range keys {
		if k == probe {
			r.Hits++
			r.Agg += uint64(vals[i])
		}
	}
	return r
}

func TestProbeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const nTuples = 5000
	bKeys := make([]uint64, nTuples)
	bVals := make([]uint32, nTuples)
	tab := New(nTuples)
	for i := range bKeys {
		bKeys[i] = rng.Uint64N(800) // dense: plenty of duplicates
		bVals[i] = rng.Uint32N(1000)
		tab.Insert(bKeys[i], bVals[i])
	}
	if tab.Len() != nTuples {
		t.Fatalf("Len = %d, want %d", tab.Len(), nTuples)
	}
	for probe := uint64(0); probe < 1000; probe++ { // beyond 800: misses
		want := reference(bKeys, bVals, probe)
		if got := tab.Probe(probe); got != want {
			t.Fatalf("Probe(%d) = %+v, want %+v", probe, got, want)
		}
	}
}

// TestEmptyAndTinyChains covers the edge chain lengths: probing an empty
// table, empty buckets, and chains of length exactly one.
func TestEmptyAndTinyChains(t *testing.T) {
	empty := New(0)
	if r := empty.Probe(42); r.Found() || r.Hits != 0 || r.Agg != 0 {
		t.Fatalf("probe of empty table = %+v", r)
	}

	tab := New(64) // 64 buckets, one entry: most buckets empty
	tab.Insert(7, 70)
	if r := tab.Probe(7); r.Hits != 1 || r.Agg != 70 {
		t.Fatalf("chain-of-one probe = %+v", r)
	}
	for k := uint64(0); k < 200; k++ {
		if k == 7 {
			continue
		}
		if r := tab.Probe(k); r.Found() {
			t.Fatalf("probe(%d) found %+v in a table holding only key 7", k, r)
		}
	}
}

// TestRunVariantsAgree checks sequential, AMAC, and frame-coroutine
// probes produce identical result sets on randomized workloads with
// duplicate probe keys, across group sizes including group > n.
func TestRunVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for round := 0; round < 20; round++ {
		nTuples := rng.IntN(3000)
		domain := 1 + rng.IntN(500)
		tab := New(nTuples)
		bKeys := make([]uint64, nTuples)
		bVals := make([]uint32, nTuples)
		for i := range bKeys {
			bKeys[i] = rng.Uint64N(uint64(domain))
			bVals[i] = rng.Uint32N(100)
			tab.Insert(bKeys[i], bVals[i])
		}
		nProbes := rng.IntN(400)
		probes := make([]uint64, nProbes)
		for i := range probes {
			// Half the probes repeat an earlier one: duplicate probe keys
			// must resolve independently and identically.
			if i > 0 && rng.IntN(2) == 0 {
				probes[i] = probes[rng.IntN(i)]
			} else {
				probes[i] = rng.Uint64N(uint64(domain) + 50)
			}
		}
		want := make([]Result, nProbes)
		tab.RunSequential(probes, want)
		for i, p := range probes {
			if want[i] != reference(bKeys, bVals, p) {
				t.Fatalf("sequential disagrees with reference at %d", i)
			}
		}
		for _, group := range []int{1, 2, 7, 16, nProbes + 13} {
			got := make([]Result, nProbes)
			tab.RunAMAC(probes, group, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("AMAC group=%d probe %d = %+v, want %+v", group, i, got[i], want[i])
				}
			}
			clear(got)
			tab.RunCoro(probes, group, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("coro group=%d probe %d = %+v, want %+v", group, i, got[i], want[i])
				}
			}
			clear(got)
			tab.RunCoroReuse(probes, group, got)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("coro-reuse group=%d probe %d = %+v, want %+v", group, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCursorEmbedding drives the exported Cursor directly, as serve's
// stage-2 probe frame does.
func TestCursorEmbedding(t *testing.T) {
	tab := New(8)
	for i := uint32(0); i < 6; i++ {
		tab.Insert(5, i) // one chain of length 6 on key 5
	}
	cur := tab.Start(5)
	var r Result
	steps := 0
	for {
		res, done := cur.Step(tab)
		steps++
		if done {
			r = res
			break
		}
		if steps > 100 {
			t.Fatal("cursor never terminated")
		}
	}
	if r.Hits != 6 || r.Agg != 0+1+2+3+4+5 {
		t.Fatalf("cursor result = %+v", r)
	}
	// One step consumes each early-loaded node plus the initial
	// head-consume round.
	if steps != 7 {
		t.Fatalf("chain of 6 took %d steps, want 7", steps)
	}
}

// TestMatchEmissionAgree checks the two match-emission paths — the
// sequential ProbeEach and polling Cursor.Matched after every Step —
// yield exactly the matching payloads, in the same chain order, on
// randomized tables with duplicates, misses, and collisions.
func TestMatchEmissionAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 11))
	for round := 0; round < 20; round++ {
		nTuples := rng.IntN(2000)
		domain := 1 + rng.IntN(300)
		tab := New(nTuples)
		bKeys := make([]uint64, nTuples)
		bVals := make([]uint32, nTuples)
		for i := range bKeys {
			bKeys[i] = rng.Uint64N(uint64(domain))
			bVals[i] = rng.Uint32N(1000)
			tab.Insert(bKeys[i], bVals[i])
		}
		for probe := uint64(0); probe < uint64(domain)+20; probe++ {
			var seq []uint32
			sr := tab.ProbeEach(probe, func(v uint32) { seq = append(seq, v) })
			if want := tab.Probe(probe); sr != want {
				t.Fatalf("ProbeEach(%d) aggregate = %+v, want %+v", probe, sr, want)
			}
			if uint32(len(seq)) != sr.Hits {
				t.Fatalf("ProbeEach(%d) emitted %d payloads for %d hits", probe, len(seq), sr.Hits)
			}
			var sum uint64
			for _, v := range seq {
				sum += uint64(v)
			}
			if sum != sr.Agg {
				t.Fatalf("ProbeEach(%d) payload sum %d != agg %d", probe, sum, sr.Agg)
			}
			var cur []uint32
			c := tab.Start(probe)
			if _, hit := c.Matched(); hit {
				t.Fatalf("fresh cursor for %d reports a match before any Step", probe)
			}
			for {
				r, done := c.Step(tab)
				if v, hit := c.Matched(); hit {
					cur = append(cur, v)
				}
				if done {
					if r != sr {
						t.Fatalf("cursor aggregate for %d = %+v, want %+v", probe, r, sr)
					}
					break
				}
			}
			if len(cur) != len(seq) {
				t.Fatalf("cursor emitted %d matches for %d, ProbeEach %d", len(cur), probe, len(seq))
			}
			for i := range cur {
				if cur[i] != seq[i] {
					t.Fatalf("match %d of probe %d: cursor %d, ProbeEach %d", i, probe, cur[i], seq[i])
				}
			}
		}
	}
}

func TestSkewedChains(t *testing.T) {
	// A hot key with multiplicity 500 next to singleton keys: the probe
	// must aggregate the whole chain for the hot key and stay exact for
	// the cold ones.
	tab := New(1024)
	var hotAgg uint64
	for i := uint32(0); i < 500; i++ {
		tab.Insert(1, i)
		hotAgg += uint64(i)
	}
	for k := uint64(2); k < 300; k++ {
		tab.Insert(k, uint32(k))
	}
	if r := tab.Probe(1); r.Hits != 500 || r.Agg != hotAgg {
		t.Fatalf("hot probe = %+v, want 500 hits agg %d", r, hotAgg)
	}
	out := make([]Result, 300)
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i)
	}
	tab.RunCoro(keys, 10, out)
	for k := uint64(2); k < 300; k++ {
		if out[k].Hits != 1 || out[k].Agg != k {
			t.Fatalf("cold probe %d = %+v", k, out[k])
		}
	}
	if out[0].Found() {
		t.Fatalf("probe 0 = %+v, want miss", out[0])
	}
	if out[1].Hits != 500 {
		t.Fatalf("hot probe via coro = %+v", out[1])
	}
}

func TestRunEmptyInputs(t *testing.T) {
	tab := New(16)
	tab.Insert(1, 1)
	tab.RunSequential(nil, nil)
	tab.RunAMAC(nil, 4, nil)
	tab.RunCoro(nil, 4, nil)
	out := make([]Result, 1)
	tab.RunAMAC([]uint64{1}, 0, out) // non-positive group degrades to 1
	if out[0].Hits != 1 {
		t.Fatalf("AMAC group=0 result = %+v", out[0])
	}
}
