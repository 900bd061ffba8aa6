package native

import (
	"testing"
	"unsafe"
)

// TestFrameLayout pins the coroutine frame and state-buffer element
// sizes. The whole point of hand-spilled frames is that per-stream
// state is a small flat struct the scheduler sweeps linearly; a field
// addition that grows a frame grows every slot of every drainer, so
// the sizes are pinned here. All three are already optimally packed
// for their field sets.
func TestFrameLayout(t *testing.T) {
	cases := []struct {
		name string
		size uintptr
		want uintptr
	}{
		// 24-byte slice header + 5 words: exactly one cache line.
		{"SearchCursor", unsafe.Sizeof(SearchCursor{}), 64},
		// Two slice headers + 4 words + the embedded 64-byte search
		// frame: 144, fully 8-aligned, no padding to reorder away.
		{"RangeCursor", unsafe.Sizeof(RangeCursor{}), 144},
		// AMAC state-buffer entry: 6 words + stage byte → 56.
		{"amacState", unsafe.Sizeof(amacState{}), 56},
		// One emitted range entry: 8+4 → 16 (alignment padding, not
		// reorderable away).
		{"Pair", unsafe.Sizeof(Pair{}), 16},
	}
	for _, c := range cases {
		if c.size != c.want {
			t.Errorf("sizeof(%s) = %d, want %d — repack widest-first or update the pin", c.name, c.size, c.want)
		}
	}
}
