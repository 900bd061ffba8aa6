//go:build !linux || race

package serve

// mapColumn keeps every column on the Go heap: off Linux, and in -race
// builds, whose detector cannot see mapped memory.
func mapColumn(int) []byte { return nil }

// unmapColumn has nothing to unmap.
func unmapColumn([]byte) {}
