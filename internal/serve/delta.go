package serve

import (
	"math/bits"
	"slices"
)

// This file is the shard-local write buffer: a small sorted delta of
// upserts and tombstones, probed in front of the epoch snapshot by every
// drain (the delta-then-main composite of HANA-style dictionary
// encoding, which the paper's Section 5.5 CSB+ experiments model). The
// delta is deliberately tiny — it is bounded by the rebuild threshold,
// so it stays cache-resident and a host-side binary search over it costs
// less than one main-index suspension point. When it fills, the shard
// freezes the committed prefix into the frozen generation and keeps
// writing into a fresh live delta, while it merges the frozen generation
// into the main column a step per write (epoch.go). The frozen generation
// keeps being probed (behind the live delta, in front of main) until the
// merged snapshot installs.
//
// Entries are versioned for cross-shard atomic batches: seq 0 is a plain
// write, visible to every reader the moment it lands in the delta; a
// non-zero seq tags an entry with its atomic batch, and the entry is
// visible only to readers whose snapshot horizon has reached that seq.
// Keys with several live versions form a short run of duplicate-key
// entries ordered newest-arrival-first, so a reader takes the first
// entry of the run its horizon can see.

// writeEntry is one delta entry: a write to key — an upsert carrying its
// value, or a tombstone (del) masking the key until the next rebuild
// drops it from the merged domain. seq is the atomic-batch tag: 0 for a
// plain write (always visible), otherwise the batch sequence the entry
// becomes visible at.
type writeEntry struct {
	key uint64
	val uint32
	del bool
	seq uint64
}

// latestSeq is the snapshot sentinel meaning "not pinned": a drain
// carrying it reads at the current commit horizon, loaded per segment.
const latestSeq = ^uint64(0)

// lowerBound returns the position of the first entry of the sorted part
// with key ≥ key — on a version chain the leftmost, newest, entry of the
// run; len(part) if there is none. Every drain probes every part of its
// view with it, so the halving loop carries no call and no jump on an
// entry's key (the borrow of e.key-key is 1 exactly when e.key < key, as
// native's advance); what remains is the loop exit and the bounds check.
//
//isi:hotpath
func lowerBound(part []writeEntry, key uint64) int {
	first, n := 0, len(part)
	if n == 0 {
		return 0
	}
	for n > 1 {
		half := n / 2
		_, below := bits.Sub64(part[first+half-1].key, key, 0)
		first += half & -int(below)
		n -= half
	}
	_, below := bits.Sub64(part[first].key, key, 0)
	return first + int(below)
}

// applyWriteEntry applies one write to the sorted delta, returning the
// updated slice. A plain write (seq 0) shadows every version for every
// reader, so it collapses the key's whole chain to itself. An atomic
// write re-hitting its own batch's entry overwrites in place (last write
// in a batch wins); otherwise it prepends to the chain, keeping runs
// newest-arrival-first.
func applyWriteEntry(delta []writeEntry, key uint64, val uint32, del bool, seq uint64) []writeEntry {
	i := lowerBound(delta, key)
	e := writeEntry{key: key, val: val, del: del, seq: seq}
	if i == len(delta) || delta[i].key != key {
		return slices.Insert(delta, i, e)
	}
	if seq == 0 {
		j := i + 1
		for j < len(delta) && delta[j].key == key {
			j++
		}
		delta[i] = e
		return slices.Delete(delta, i+1, j)
	}
	if delta[i].seq == seq {
		delta[i] = e
		return delta
	}
	return slices.Insert(delta, i, e)
}

// deltaOutcome classifies a delta probe.
type deltaOutcome uint8

const (
	// deltaMiss: the key has no delta entry; probe the main index.
	deltaMiss deltaOutcome = iota
	// deltaHit: the key was upserted; the carried value answers the probe.
	deltaHit
	// deltaDel: the key is tombstoned; it is absent regardless of main.
	deltaDel
)

// deltaView is the write-buffer snapshot one drain probes: the ordered
// parts (live delta first, then the frozen generation, then any absorbed
// generations replayed for a pinned reader whose epoch predates their
// merge), filtered by the read horizon `at`. Every part
// is immutable for the duration of the drain (the shard goroutine only
// mutates the live delta between drains, and generations are frozen).
type deltaView struct {
	at    uint64
	parts [][]writeEntry
}

// empty reports whether the view holds no writes — the read-only fast
// path, where drains skip delta probing entirely.
func (dv deltaView) empty() bool { return len(dv.parts) == 0 }

// visible reports whether the read horizon has reached entry e.
func (dv deltaView) visible(e writeEntry) bool { return e.seq == 0 || e.seq <= dv.at }

// lookup probes the view for key: first visible entry of the newest part
// holding one wins.
func (dv deltaView) lookup(key uint64) (uint32, deltaOutcome) {
	for _, part := range dv.parts {
		for i := lowerBound(part, key); i < len(part) && part[i].key == key; i++ {
			if !dv.visible(part[i]) {
				continue
			}
			if part[i].del {
				return NotFound, deltaDel
			}
			return part[i].val, deltaHit
		}
	}
	return NotFound, deltaMiss
}

// splitCommitted stably partitions the live delta at commit horizon hz:
// entries visible to every latest reader (plain writes and committed
// atomic entries) freeze into the next generation; entries of
// still-uncommitted atomic batches stay live so they keep accepting
// their batch's commit before they are ever baked into an epoch. The
// common all-committed case moves the slice wholesale.
func splitCommitted(delta []writeEntry, hz uint64) (committed, uncommitted []writeEntry) {
	n := 0
	for _, e := range delta {
		if e.seq == 0 || e.seq <= hz {
			n++
		}
	}
	switch n {
	case len(delta):
		return delta, nil
	case 0:
		return nil, delta
	}
	committed = make([]writeEntry, 0, n)
	uncommitted = make([]writeEntry, 0, len(delta)-n)
	for _, e := range delta {
		if e.seq == 0 || e.seq <= hz {
			committed = append(committed, e)
		} else {
			uncommitted = append(uncommitted, e)
		}
	}
	return committed, uncommitted
}

// flattenGen collapses one frozen generation into the parallel columns
// native.StartMerge consumes: one entry per key, the head of its version
// chain — every entry of a frozen generation is committed, so the head is
// exactly what a latest reader saw — plus the highest seq tag among them,
// which becomes the installed epoch's upTo fence: a reader pinned below
// it must replay the absorbed generation against the previous epoch
// instead.
func flattenGen(gen []writeEntry) (keys []uint64, vals []uint32, del []bool, upTo uint64) {
	keys = make([]uint64, 0, len(gen))
	vals = make([]uint32, 0, len(gen))
	del = make([]bool, 0, len(gen))
	for i := 0; i < len(gen); i = skipKeyRun(gen, i) {
		e := gen[i]
		keys, vals, del = append(keys, e.key), append(vals, e.val), append(del, e.del)
		upTo = max(upTo, e.seq)
	}
	return keys, vals, del, upTo
}

// skipKeyRun advances past the duplicate-key run starting at i.
func skipKeyRun(part []writeEntry, i int) int {
	k := part[i].key
	for i++; i < len(part) && part[i].key == k; i++ {
	}
	return i
}
