//go:build linux && !race

package serve

import (
	"bufio"
	"context"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// vma is one line of /proc/self/maps or /proc/self/smaps: an address
// range and, from smaps, its VmFlags.
type vma struct {
	lo, hi uint64
	flags  []string
}

// readVMAs parses the process's mappings from /proc/self/smaps.
func readVMAs(t *testing.T) []vma {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	var out []vma
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmFlags:"); ok && len(out) > 0 {
			out[len(out)-1].flags = strings.Fields(rest)
			continue
		}
		lo, hi, ok := strings.Cut(strings.Fields(line)[0], "-")
		if !ok {
			continue
		}
		l, err1 := strconv.ParseUint(lo, 16, 64)
		h, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			continue // a field line such as "Rss:"
		}
		out = append(out, vma{lo: l, hi: h})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// addrOf is the address of a column's first byte.
func addrOf[T any](s []T) uint64 { return uint64(uintptr(unsafe.Pointer(unsafe.SliceData(s)))) }

// TestColumnsMappedOutsideHeap: a shard's columns of a huge page or more
// are mappings of their own, 2 MiB-aligned, whole huge pages long and
// advised MADV_HUGEPAGE (VmFlags "hg"), and New's building them adds
// nothing of their size to the Go heap. The heap check reads HeapAlloc
// rather than HeapSys: HeapSys keeps freed spans and grows by whole
// arenas, so it cannot tell where one column went. The kernel may merge
// the two columns' adjacent mappings into one VMA, so a column need only
// lie inside an hg VMA, not start one.
func TestColumnsMappedOutsideHeap(t *testing.T) {
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil {
		t.Skip("kernel without transparent huge pages: MADV_HUGEPAGE is refused")
	}
	domain := bigDomain(1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(domain, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	x, c := &s.shards[0].epoch.Load().idx, s.shards[0].retained[0].cols
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= int64(4*len(x.codes)) {
		t.Fatalf("the heap grew by %d bytes while New built %d-byte and %d-byte columns", grown, 8*len(x.table), 4*len(x.codes))
	}
	if !c.keysMapped || !c.codesMapped {
		t.Fatalf("keys mapped %v, codes mapped %v: want both columns mapped", c.keysMapped, c.codesMapped)
	}
	if addrOf(x.table) != addrOf(c.keys) || addrOf(x.codes) != addrOf(c.codes) {
		t.Fatal("the epoch's columns do not view its column set")
	}
	vmas := readVMAs(t)
	for name, col := range map[string][]byte{"keys": columnMemory(c.keys), "codes": columnMemory(c.codes)} {
		lo, hi := addrOf(col), addrOf(col)+uint64(len(col))
		if lo%hugePage != 0 || len(col)%hugePage != 0 {
			t.Fatalf("%s column %#x-%#x is not whole 2 MiB-aligned huge pages", name, lo, hi)
		}
		found := false
		for _, v := range vmas {
			if v.lo <= lo && hi <= v.hi {
				found = true
				if !slices.Contains(v.flags, "hg") {
					t.Fatalf("%s column's mapping has VmFlags %v, want hg", name, v.flags)
				}
			}
		}
		if !found {
			t.Fatalf("%s column %#x-%#x lies in no single mapping", name, lo, hi)
		}
	}
	// The columns serve: the first, a middle and the last key resolve.
	for _, i := range []int{0, len(domain) / 2, len(domain) - 1} {
		if r := s.Lookup(context.Background(), domain[i]); !r.Found || r.Code != uint32(i) {
			t.Fatalf("lookup(%d) = %+v, want code %d", domain[i], r, i)
		}
	}
}

// TestCloseUnmapsColumns: after Close, none of the service's column
// mappings — New's, the merged epochs' and the spare — remain in the
// process's address space. Only hg mappings count as a column left
// behind: once the columns are gone the kernel may place another
// mapping of the process (a runtime chunk, a thread stack) in the hole,
// and those do not carry the advice.
func TestCloseUnmapsColumns(t *testing.T) {
	s, err := New(bigDomain(2), WithShards(2), WithRebuildThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range 64 { // several installs a shard: merged epochs and a spare
		s.Insert(ctx, uint64(2*i+1), uint32(i)).Wait()
	}
	awaitRebuild(t, s)
	// The shards are idle, and their column sets were last written before
	// the batches above completed.
	var ranges []vma
	add := func(mapped bool, col []byte) {
		if mapped {
			ranges = append(ranges, vma{lo: addrOf(col), hi: addrOf(col) + uint64(len(col))})
		}
	}
	for _, sh := range s.shards {
		sets := []colSet{sh.spare}
		for _, ep := range sh.retained {
			sets = append(sets, ep.cols)
		}
		for _, c := range sets {
			add(c.keysMapped, columnMemory(c.keys))
			add(c.codesMapped, columnMemory(c.codes))
		}
	}
	if len(ranges) < 2*len(s.shards) {
		t.Fatalf("%d column mappings over %d shards, want every shard's columns mapped", len(ranges), len(s.shards))
	}
	s.Close()
	for _, v := range readVMAs(t) {
		if !slices.Contains(v.flags, "hg") {
			continue
		}
		for _, r := range ranges {
			if v.lo < r.hi && r.lo < v.hi {
				t.Fatalf("after Close, the hg mapping %#x-%#x still overlaps the column %#x-%#x", v.lo, v.hi, r.lo, r.hi)
			}
		}
	}
	if st := s.Stats(); st.Shards[0].ColumnBytes != 0 || st.Shards[1].ColumnBytes != 0 {
		t.Fatalf("after Close, ColumnBytes %d and %d, want 0", st.Shards[0].ColumnBytes, st.Shards[1].ColumnBytes)
	}
}

// TestRoundedColumnsHoldTheirCapacity: a mapped set's columns round up
// to whole huge pages, and its page sample covers that rounding, so the
// set holds a merge as long as both columns do. A sample sized from the
// requested length would run out first and make the shard replace two
// mappings that still had room.
func TestRoundedColumnsHoldTheirCapacity(t *testing.T) {
	const n = hugePage/4 + 1 // codes just over one huge page, keys over two
	c := newColSet(n)
	defer c.free()
	if !c.keysMapped || !c.codesMapped {
		t.Fatalf("keys mapped %v, codes mapped %v: want both", c.keysMapped, c.codesMapped)
	}
	room := min(cap(c.keys), cap(c.codes))
	if room != 3*hugePage/8 { // the keys' three huge pages
		t.Fatalf("a set of %d keys has room for %d in both columns, want %d", n, room, 3*hugePage/8)
	}
	if !c.holds(room) {
		t.Fatalf("a set with room for %d keys in both columns does not hold a merge of %d (sample capacity %d)", room, room, cap(c.top))
	}
}
