package wire

import (
	"testing"
	"unsafe"
)

// TestWireStructLayout pins the outbound frame queue element and the
// request header. The frame struct rides every response through the
// per-connection channel — type tag, payload, and the request slot a
// terminal response hands back to the writer; the 5-byte on-wire header
// (length + type) is pinned independently in the protocol tests — this
// is the in-memory shape.
func TestWireStructLayout(t *testing.T) {
	if s := unsafe.Sizeof(frame{}); s != 40 {
		t.Errorf("sizeof(frame) = %d, want 40 — repack or update the pin", s)
	}
	if s := unsafe.Sizeof(ReqHeader{}); s != 16 {
		t.Errorf("sizeof(ReqHeader) = %d, want 16 — repack widest-first or update the pin", s)
	}
}
