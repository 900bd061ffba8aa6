//go:build linux && !race

package serve

import (
	"syscall"
	"unsafe"
)

// mapFixedNoreplace is MAP_FIXED_NOREPLACE (Linux 4.17), which the
// frozen syscall package does not name: map at the given address, or
// fail with EEXIST if anything is mapped there. Older kernels ignore it
// and treat the address as a hint.
const mapFixedNoreplace = 0x100000

// mapColumn maps size bytes for a column when they fill at least one
// huge page: an anonymous private mapping of its own, 2 MiB-aligned, its
// length rounded up to whole huge pages, and MADV_HUGEPAGE applied
// before the first touch. The advice is a hint — the mapping works
// without it — so its error is ignored. It returns nil when the column
// belongs on the heap or no mapping can be made.
//
// To find an aligned range it maps a probe one huge page longer than the
// column, unmaps it, and maps the column alone at the aligned address
// inside it, so the column is the whole mapping and unmapColumn takes
// the column's own bytes. Another thread may map into the range between
// the two; the column then retries with a new probe.
func mapColumn(size int) []byte {
	if size < hugePage {
		return nil
	}
	n := (size + hugePage - 1) &^ (hugePage - 1)
	for range 4 {
		probe, err := syscall.Mmap(-1, 0, n+hugePage, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil
		}
		off := -int(uintptr(unsafe.Pointer(&probe[0]))) & (hugePage - 1)
		col := probe[off : off+n : off+n]
		if err := syscall.Munmap(probe); err != nil {
			panic("serve: unmapping a column probe: " + err.Error())
		}
		want := uintptr(unsafe.Pointer(&col[0]))
		got, _, errno := syscall.Syscall6(syscall.SYS_MMAP, want, uintptr(n), syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE|mapFixedNoreplace, ^uintptr(0), 0)
		if errno == 0 && got == want {
			_ = syscall.Madvise(col, syscall.MADV_HUGEPAGE)
			return col
		}
		if errno == 0 { // an older kernel took the address as a hint
			munmap(got, n)
		}
	}
	return nil
}

// unmapColumn unmaps a column mapColumn returned.
func unmapColumn(col []byte) { munmap(uintptr(unsafe.Pointer(&col[0])), len(col)) }

func munmap(addr uintptr, n int) {
	if _, _, errno := syscall.Syscall(syscall.SYS_MUNMAP, addr, uintptr(n), 0); errno != 0 {
		panic("serve: unmapping a column: " + errno.Error())
	}
}
