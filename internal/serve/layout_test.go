package serve

import (
	"testing"
	"unsafe"
)

// TestHotStructLayout pins the sizes of the structs that travel in
// columns or sit on the per-message path, so an innocent field addition
// or reorder that regrows them fails loudly instead of quietly taxing
// every batch. The expected values are the optimal packings for the
// current field sets (verified by exhausting permutations when each
// was set); if a test fails after an intentional field change, re-pack
// widest-first and update the constant.
func TestHotStructLayout(t *testing.T) {
	cases := []struct {
		name string
		size uintptr
		want uintptr
	}{
		// One admission column element. Packing order (widest first)
		// makes it 32; the natural Kind-first declaration costs 40.
		{"Op", unsafe.Sizeof(Op{}), 32},
		// One delta entry: 8+4+1+8 packs to 24 with key/val/del/seq —
		// no order does better (21 payload bytes, 8-byte alignment).
		{"writeEntry", unsafe.Sizeof(writeEntry{}), 24},
		// One shard queue message: two pointers and three 8-byte words,
		// no padding.
		{"shardMsg", unsafe.Sizeof(shardMsg{}), 40},
		// One point request's slot in its batch's slab: batch pointer and
		// index, the 32-byte op, its context and enqueue time.
		{"Future", unsafe.Sizeof(Future{}), 88},
		// One point outcome; also the element of vectorized result
		// columns.
		{"Result", unsafe.Sizeof(Result{}), 8},
		// One streamed join match (per-shard match buffers).
		{"Match", unsafe.Sizeof(Match{}), 24},
		// One merged range entry (range result columns).
		{"RangeEntry", unsafe.Sizeof(RangeEntry{}), 16},
		// Stage 2's per-slot frame: table pointer, the 56-byte chain
		// cursor, match sink pointer and the 24-byte match template — a
		// cache line and a half, against the ~170 bytes of the composite
		// search+walk frame it replaced.
		{"probeFrame", unsafe.Sizeof(probeFrame{}), 96},
	}
	for _, c := range cases {
		if c.size != c.want {
			t.Errorf("sizeof(%s) = %d, want %d — repack widest-first or update the pin", c.name, c.size, c.want)
		}
	}
}

// TestOpColumnSaving documents why Op's field order is packing order:
// the Kind-first declaration order would round every element up to 40
// bytes. Guards the comment on the struct staying true.
func TestOpColumnSaving(t *testing.T) {
	type opKindFirst struct {
		Kind  OpKind
		Key   uint64
		Val   uint32
		Hi    uint64
		Limit int
	}
	if natural := unsafe.Sizeof(opKindFirst{}); natural <= unsafe.Sizeof(Op{}) {
		t.Fatalf("packing no longer buys anything: natural order %d <= packed %d — drop the layout note on Op", natural, unsafe.Sizeof(Op{}))
	}
}
