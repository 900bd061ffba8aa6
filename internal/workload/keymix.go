package workload

// This file holds the skewed key mix of the serving workloads: the key
// law behind the root tests' lookup streams, RangeMix's range starts and
// JoinBuildIndices' build side.

import "math/rand/v2"

// KeyMix draws lookup indices in [0, Max): a ZipfFrac fraction from a
// Zipf(S) distribution (the skewed hot set of real key traffic, after
// Shahvarani & Jacobsen's stream-join workloads) and the remainder
// uniform. Draws are deterministic under the seed. Not safe for
// concurrent use; give each generator worker its own KeyMix.
type KeyMix struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	max      int
	zipfFrac float64
}

// NewKeyMix builds a key mix over [0, max) drawing zipfFrac of the keys
// from Zipf with exponent s (clamped to a valid s > 1) and the rest
// uniformly.
func NewKeyMix(seed uint64, max int, zipfFrac, s float64) *KeyMix {
	if max < 1 {
		max = 1
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	var zipf *rand.Zipf
	if zipfFrac > 0 {
		if s <= 1 {
			s = 1.01
		}
		zipf = rand.NewZipf(rng, s, 1, uint64(max-1))
	}
	return &KeyMix{rng: rng, zipf: zipf, max: max, zipfFrac: zipfFrac}
}

// Next returns the next index.
func (m *KeyMix) Next() int {
	if m.zipf != nil && m.rng.Float64() < m.zipfFrac {
		return int(m.zipf.Uint64())
	}
	return int(m.rng.Uint64N(uint64(m.max)))
}
