package native

// This file is the top half of the two-level search the serving drains
// run: a page sample of the sorted table, small enough to stay
// cache-resident, searched in lockstep for every key of a batch at once,
// so the per-key coroutine search that follows (StartSearch over Window)
// suspends only inside one 4 KB page. The top levels of a full-column
// search land on positions every key shares — each on a different page,
// so a TLB walk plus an L2 hit — and a suspension there is switch cost
// with no stall to hide (the paper's Section 6 suspends only on a probe
// that would miss, CoroBase's rule is the same).

// PageKeys is the two-level search's window: the keys of one 4 KB page
// of uint64. Sample keeps every PageKeys-th key, Window cuts the page a
// sampled key opens.
const PageKeys = 512

// Sample builds the page sample of a sorted table: top[j] =
// table[j·PageKeys], ceil(len(table)/PageKeys) entries — 1/PageKeys of
// the table's bytes. A table of at most PageKeys keys has a one-entry
// sample (no lockstep level), an empty table an empty one.
func Sample(table []uint64) []uint64 {
	top := make([]uint64, 0, (len(table)+PageKeys-1)/PageKeys)
	for j := 0; j < len(table); j += PageKeys {
		top = append(top, table[j])
	}
	return top
}

// Window is page w of table: table[w·PageKeys : min((w+1)·PageKeys,
// len(table))]. When w is SampleWindows' answer for key, Baseline(Window)
// + w·PageKeys is Baseline(table, key): every key of a later page
// exceeds key, and the window's first key does not.
//
//isi:hotpath
func Window(table []uint64, w int) []uint64 {
	lo := w * PageKeys
	return table[lo:min(lo+PageKeys, len(table))]
}

// windowChunk bounds how many keys SampleWindows keeps in lockstep: a
// serving segment is ≤ 512 keys in the common case (a 1024-key vector
// over two or more shards), so a segment is one group, and every level
// issues more independent loads than the core has miss buffers anyway.
const windowChunk = 512

// SampleWindows is RunGP's level loop with a whole chunk of keys as one
// group, run over a page sample (Sample): it calls emit(i, w) once per
// key, in key order, with w = Baseline(top, keys[i]) — the page window
// of keys[i] in the sampled table. The sample is cache-resident (1/512
// of the table), so no level of it suspends. emit is called, not
// retained.
//
//isi:hotpath
func SampleWindows(top []uint64, keys []uint64, emit func(i, w int)) {
	var lows [windowChunk]uint32
	for c0 := 0; c0 < len(keys); c0 += windowChunk {
		ck := keys[c0:min(c0+windowChunk, len(keys))]
		cl := lows[:len(ck)]
		if c0 > 0 {
			clear(cl)
		}
		size := len(top)
		for half := size / 2; half > 0; half = size / 2 {
			for s, k := range ck {
				l := int(cl[s])
				cl[s] = uint32(advance(l, half, top[l+half], k))
			}
			size -= half
		}
		for s, w := range cl {
			emit(c0+s, int(w))
		}
	}
}
