package native

// MergeSorted is the bulk merge of epoch rebuilds (internal/serve) run to
// the end in one call: it merges a sorted dictionary column — keys with a
// parallel value column — with a sorted write batch of upserts and
// deletes into fresh slices, leaving both inputs untouched.
//
// keys and upKeys must each be strictly increasing; del[i] marks upKeys[i]
// as a delete (the key is dropped from the output; deleting an absent key
// is a no-op). An upsert of an existing key replaces its value in place —
// the output key multiset is keys ∪ upKeys minus the deleted keys.
func MergeSorted(keys []uint64, vals []uint32, upKeys []uint64, upVals []uint32, del []bool) ([]uint64, []uint32) {
	m := len(keys) + len(upKeys)
	c := StartMerge(keys, vals, upKeys, upVals, del, make([]uint64, m), make([]uint32, m), make([]uint64, SampleLen(m)))
	c.Step(c.Bound())
	k, v, _ := c.Result()
	return k, v
}

// MergeCursor is MergeSorted's loop with its state held in a struct, so a
// serving shard can run the merge itself in bounded steps between the
// writes it applies. The inputs are only read, so they stay live for
// readers of the published snapshot while the merge is in flight. The
// cursor also builds the merged column's page sample (Sample's layout) as
// it emits, so no separate pass over the output follows a merge.
type MergeCursor struct {
	keys   []uint64
	vals   []uint32
	upKeys []uint64
	upVals []uint32
	del    []bool
	i, j   int
	// outK/outV are the output columns sized to Bound, top their page
	// sample; the first o entries are emitted.
	outK []uint64
	outV []uint32
	top  []uint64
	o    int
}

// StartMerge begins MergeSorted's merge of the write batch (upKeys,
// upVals, del) into the column (keys, vals), with the same input
// contract, into the caller's output buffers: outK and outV must have
// capacity for Bound = len(keys) + len(upKeys) entries and top for their
// page sample (SampleLen(Bound) entries). The buffers' contents are
// overwritten and must not overlap the inputs; nothing is emitted until
// Step.
func StartMerge(keys []uint64, vals []uint32, upKeys []uint64, upVals []uint32, del []bool, outK []uint64, outV []uint32, top []uint64) MergeCursor {
	if len(keys) != len(vals) {
		panic("native: MergeSorted keys/vals length mismatch")
	}
	if len(upKeys) != len(upVals) || len(upKeys) != len(del) {
		panic("native: MergeSorted upKeys/upVals/del length mismatch")
	}
	m := len(keys) + len(upKeys)
	if cap(outK) < m || cap(outV) < m || cap(top) < SampleLen(m) {
		panic("native: StartMerge output buffers below the merge's bound")
	}
	return MergeCursor{
		keys: keys, vals: vals, upKeys: upKeys, upVals: upVals, del: del,
		outK: outK[:m], outV: outV[:m], top: top[:SampleLen(m)],
	}
}

// Bound is the most entries the merge can emit: len(keys) + len(upKeys).
// A Step of Bound entries always completes it.
func (c *MergeCursor) Bound() int { return len(c.outK) }

// done reports whether every input entry has been consumed.
func (c *MergeCursor) done() bool { return c.i == len(c.keys) && c.j == len(c.upKeys) }

// Step emits up to n more output entries (deletes consume input without
// emitting), appends the page sample of what it emitted, and reports
// whether the merge is complete. The loop runs on local copies of the
// cursor's state, so its stores to the output cannot force the compiler
// to reload it.
func (c *MergeCursor) Step(n int) bool {
	keys, vals, upKeys, upVals, del := c.keys, c.vals, c.upKeys, c.upVals, c.del
	outK, outV := c.outK, c.outV
	i, j, o := c.i, c.j, c.o
	from, stop := o, o+min(n, len(outK)-o)
	for o < stop && i < len(keys) && j < len(upKeys) {
		k, u := keys[i], upKeys[j]
		if k < u {
			outK[o], outV[o] = k, vals[i]
			o++
			i++
			continue
		}
		if k == u { // the write batch overrides the main column
			i++
		}
		if !del[j] {
			outK[o], outV[o] = u, upVals[j]
			o++
		}
		j++
	}
	// At most one input has entries left below stop.
	if t := min(stop-o, len(keys)-i); t > 0 {
		copy(outK[o:o+t], keys[i:i+t])
		copy(outV[o:o+t], vals[i:i+t])
		o, i = o+t, i+t
	}
	for ; o < stop && j < len(upKeys); j++ {
		if !del[j] {
			outK[o], outV[o] = upKeys[j], upVals[j]
			o++
		}
	}
	// Trailing deletes emit nothing: consume them so a merge whose last
	// emitted entry met stop still reports done.
	for i == len(keys) && j < len(upKeys) && del[j] {
		j++
	}
	for p := (from + PageKeys - 1) / PageKeys * PageKeys; p < o; p += PageKeys {
		c.top[p/PageKeys] = outK[p]
	}
	c.i, c.j, c.o = i, j, o
	return c.done()
}

// Result returns the merged key and value columns and the key column's
// page sample (Sample of the keys). It is complete once Step has
// reported done.
func (c *MergeCursor) Result() (keys []uint64, vals []uint32, top []uint64) {
	return c.outK[:c.o], c.outV[:c.o], c.top[:SampleLen(c.o)]
}
