package native

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestMergeSortedBasic(t *testing.T) {
	cases := []struct {
		name   string
		keys   []uint64
		vals   []uint32
		upKeys []uint64
		upVals []uint32
		del    []bool
		wantK  []uint64
		wantV  []uint32
	}{
		{name: "empty both"},
		{
			name:   "inserts only into empty",
			upKeys: []uint64{2, 5}, upVals: []uint32{20, 50}, del: []bool{false, false},
			wantK: []uint64{2, 5}, wantV: []uint32{20, 50},
		},
		{
			name: "interleaved inserts",
			keys: []uint64{1, 4, 9}, vals: []uint32{10, 40, 90},
			upKeys: []uint64{0, 4, 12}, upVals: []uint32{5, 44, 120}, del: []bool{false, false, false},
			wantK: []uint64{0, 1, 4, 9, 12}, wantV: []uint32{5, 10, 44, 90, 120},
		},
		{
			name: "deletes, including absent key",
			keys: []uint64{1, 4, 9}, vals: []uint32{10, 40, 90},
			upKeys: []uint64{4, 7}, upVals: []uint32{0, 0}, del: []bool{true, true},
			wantK: []uint64{1, 9}, wantV: []uint32{10, 90},
		},
		{
			name: "delete everything",
			keys: []uint64{3}, vals: []uint32{30},
			upKeys: []uint64{3}, upVals: []uint32{0}, del: []bool{true},
			wantK: []uint64{}, wantV: []uint32{},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gotK, gotV := MergeSorted(c.keys, c.vals, c.upKeys, c.upVals, c.del)
			if !slices.Equal(gotK, c.wantK) && !(len(gotK) == 0 && len(c.wantK) == 0) {
				t.Fatalf("keys = %v, want %v", gotK, c.wantK)
			}
			if !slices.Equal(gotV, c.wantV) && !(len(gotV) == 0 && len(c.wantV) == 0) {
				t.Fatalf("vals = %v, want %v", gotV, c.wantV)
			}
		})
	}
}

// TestMergeSortedRandomizedVsMap replays random upsert/delete batches
// against a map reference and checks the merged column matches the map's
// sorted contents exactly, across several merge generations.
func TestMergeSortedRandomizedVsMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	ref := map[uint64]uint32{}
	var keys []uint64
	var vals []uint32
	for i := 0; i < 100; i++ {
		keys = append(keys, uint64(i)*3)
		vals = append(vals, uint32(i))
		ref[uint64(i)*3] = uint32(i)
	}
	for gen := 0; gen < 30; gen++ {
		n := 1 + int(rng.Uint64N(40))
		batch := map[uint64]struct {
			val uint32
			del bool
		}{}
		for i := 0; i < n; i++ {
			k := rng.Uint64N(400)
			batch[k] = struct {
				val uint32
				del bool
			}{val: rng.Uint32(), del: rng.Uint64N(3) == 0}
		}
		upKeys := make([]uint64, 0, len(batch))
		for k := range batch {
			upKeys = append(upKeys, k)
		}
		slices.Sort(upKeys)
		upVals := make([]uint32, len(upKeys))
		del := make([]bool, len(upKeys))
		for i, k := range upKeys {
			upVals[i] = batch[k].val
			del[i] = batch[k].del
			if batch[k].del {
				delete(ref, k)
			} else {
				ref[k] = batch[k].val
			}
		}
		keys, vals = MergeSorted(keys, vals, upKeys, upVals, del)
		if len(keys) != len(ref) {
			t.Fatalf("gen %d: %d keys, reference has %d", gen, len(keys), len(ref))
		}
		for i, k := range keys {
			if i > 0 && keys[i-1] >= k {
				t.Fatalf("gen %d: output not strictly increasing at %d", gen, i)
			}
			if want, ok := ref[k]; !ok || vals[i] != want {
				t.Fatalf("gen %d: key %d = %d, reference %d (present %v)", gen, k, vals[i], want, ok)
			}
		}
	}
}

// mergeCase is one merge input: a sorted column and a sorted write
// batch, and the merged length it is built for.
type mergeCase struct {
	name   string
	keys   []uint64
	vals   []uint32
	upKeys []uint64
	upVals []uint32
	del    []bool
	out    int
}

// mergeCases builds the cursor's input shapes: an empty base, an empty
// batch, a batch of deletes only, upserts over existing keys, and mixed
// batches whose merged length lands just below, at and just above one
// and two multiples of PageKeys. The base holds keys 4, 8, …, 4·base.
func mergeCases() []mergeCase {
	var cases []mergeCase
	// add builds a case whose batch writes the keys of ws, in order,
	// deleting where del(k).
	add := func(name string, base int, ws []uint64, del func(uint64) bool, out int) {
		c := mergeCase{name: name, out: out}
		for i := range base {
			c.keys, c.vals = append(c.keys, uint64(4*i+4)), append(c.vals, uint32(i))
		}
		for i, k := range ws {
			c.upKeys, c.upVals, c.del = append(c.upKeys, k), append(c.upVals, uint32(100000+i)), append(c.del, del(k))
		}
		cases = append(cases, c)
	}
	seq := func(n int, f func(int) uint64) []uint64 {
		ws := make([]uint64, n)
		for i := range ws {
			ws[i] = f(i)
		}
		return ws
	}
	never := func(uint64) bool { return false }
	always := func(uint64) bool { return true }
	add("empty both", 0, nil, never, 0)
	add("empty base", 0, seq(1500, func(i int) uint64 { return uint64(3*i + 1) }), never, 1500)
	add("empty batch", 1500, nil, never, 1500)
	add("all deletes", 1300, seq(1400, func(i int) uint64 { return uint64(2*i + 2) }), always, 600)
	add("delete everything", 700, seq(700, func(i int) uint64 { return uint64(4*i + 4) }), always, 0)
	add("upserts over existing", 1024, seq(512, func(i int) uint64 { return uint64(8*i + 4) }), never, 1024)
	// A batch over keys 2, 4, …, 2·n: the odd multiples of 2 are fresh
	// inserts, the multiples of 8 delete a base key, the rest upsert one.
	for _, out := range []int{PageKeys - 1, PageKeys, PageKeys + 1, 2*PageKeys - 1, 2 * PageKeys, 2*PageKeys + 1} {
		const n = 160 // 80 inserts, 40 upserts, 40 deletes: out = base + 40
		add(fmt.Sprintf("output %d", out), out-40, seq(n, func(i int) uint64 { return uint64(2*i + 2) }),
			func(k uint64) bool { return k%8 == 0 }, out)
	}
	return cases
}

// mergeBufs is a set of merge output buffers recycled from merge to
// merge, as a serving shard recycles its spare columns: each merge
// overwrites what the last one left, and the buffers grow only when a
// merge's bound exceeds them.
type mergeBufs struct {
	k, top []uint64
	v      []uint32
}

// fit returns the buffers at capacity for a merge bounded by m, growing
// them with stale values in them when they are smaller.
func (b *mergeBufs) fit(m int) ([]uint64, []uint32, []uint64) {
	if cap(b.k) < m {
		b.k, b.v, b.top = make([]uint64, m+3), make([]uint32, m+3), make([]uint64, SampleLen(m)+1)
		for i := range b.k {
			b.k[i], b.v[i] = ^uint64(0)-uint64(i), uint32(i)
		}
		for i := range b.top {
			b.top[i] = ^uint64(0)
		}
	}
	return b.k, b.v, b.top
}

// stepAll runs a cursor over c into bufs with the chunk sizes next
// yields, checking that every step emits exactly its chunk unless it
// completes the merge and that Step reports done exactly once the inputs
// are consumed.
func stepAll(t *testing.T, c mergeCase, bufs *mergeBufs, next func() int) ([]uint64, []uint32, []uint64) {
	t.Helper()
	outK, outV, top := bufs.fit(len(c.keys) + len(c.upKeys))
	cur := StartMerge(c.keys, c.vals, c.upKeys, c.upVals, c.del, outK, outV, top)
	for steps := 0; ; steps++ {
		if steps > 2*cur.Bound()+2 {
			t.Fatal("cursor does not finish")
		}
		n := next()
		before, _, _ := cur.Result()
		done := cur.Step(n)
		after, _, _ := cur.Result()
		if emitted := len(after) - len(before); emitted > n || (!done && emitted != max(n, 0)) {
			t.Fatalf("Step(%d) emitted %d (done %v)", n, emitted, done)
		}
		if done != cur.done() {
			t.Fatalf("Step reported %v, done %v", done, cur.done())
		}
		if done {
			return cur.Result()
		}
	}
}

// TestMergeCursorEquivalence: a merge stepped in chunks of 1, 7, 511,
// 512, 513 or all at once, or in random chunk sequences (zeros
// included), yields exactly MergeSorted's keys and codes, and the page
// sample it builds as it goes is exactly Sample of those keys — also
// when its output buffers are recycled from earlier, larger merges.
func TestMergeCursorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	var bufs mergeBufs
	for _, c := range mergeCases() {
		wantK, wantV := MergeSorted(c.keys, c.vals, c.upKeys, c.upVals, c.del)
		if len(wantK) != c.out {
			t.Fatalf("%s: merged %d entries, the case is built for %d", c.name, len(wantK), c.out)
		}
		wantTop := Sample(wantK)
		check := func(label string, k []uint64, v []uint32, top []uint64) {
			t.Helper()
			if !slices.Equal(k, wantK) || !slices.Equal(v, wantV) {
				t.Fatalf("%s %s: merged %d entries, MergeSorted %d", c.name, label, len(k), len(wantK))
			}
			if !slices.Equal(top, wantTop) {
				t.Fatalf("%s %s: sample %v, Sample %v", c.name, label, top, wantTop)
			}
		}
		m := len(c.keys) + len(c.upKeys)
		for _, chunk := range []int{1, 7, 511, 512, 513, m} {
			k, v, top := stepAll(t, c, &bufs, func() int { return chunk })
			check(fmt.Sprintf("chunk %d", chunk), k, v, top)
		}
		for r := 0; r < 8; r++ {
			k, v, top := stepAll(t, c, &bufs, func() int { return int(rng.Uint64N(600)) })
			check(fmt.Sprintf("random %d", r), k, v, top)
		}
	}
}

// TestMergeSortedVsReference pins MergeSorted (the cursor run to the
// end) to a plain two-way merge written out here, on every cursor
// shape.
func TestMergeSortedVsReference(t *testing.T) {
	for _, c := range mergeCases() {
		var wantK []uint64
		var wantV []uint32
		i, j := 0, 0
		for i < len(c.keys) || j < len(c.upKeys) {
			switch {
			case j == len(c.upKeys) || i < len(c.keys) && c.keys[i] < c.upKeys[j]:
				wantK, wantV = append(wantK, c.keys[i]), append(wantV, c.vals[i])
				i++
				continue
			case i < len(c.keys) && c.keys[i] == c.upKeys[j]:
				i++
			}
			if !c.del[j] {
				wantK, wantV = append(wantK, c.upKeys[j]), append(wantV, c.upVals[j])
			}
			j++
		}
		gotK, gotV := MergeSorted(c.keys, c.vals, c.upKeys, c.upVals, c.del)
		if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
			t.Fatalf("%s: MergeSorted %d entries, reference %d", c.name, len(gotK), len(wantK))
		}
	}
}

// TestStartMergeBelowBound: output buffers below the merge's bound are
// refused at the start, before any entry is written.
func TestStartMergeBelowBound(t *testing.T) {
	keys, vals := []uint64{1, 3}, []uint32{0, 1}
	up, upV, del := []uint64{2}, []uint32{7}, []bool{false}
	for name, bufs := range map[string]struct {
		k, top []uint64
		v      []uint32
	}{
		"keys":   {make([]uint64, 2), make([]uint64, 1), make([]uint32, 3)},
		"codes":  {make([]uint64, 3), make([]uint64, 1), make([]uint32, 2)},
		"sample": {make([]uint64, 3), nil, make([]uint32, 3)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s buffer below the bound: StartMerge did not panic", name)
				}
			}()
			StartMerge(keys, vals, up, upV, del, bufs.k, bufs.v, bufs.top)
		}()
	}
}
