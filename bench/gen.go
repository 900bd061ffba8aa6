package main

import (
	"math/bits"

	"repro/internal/serve"
	"repro/internal/workload"
)

// This file generates everything the program under test is fed: the value
// domain, the join build side with its oracle, and the per-request keys and
// transactions. The -seed argument is the only source of randomness; the
// program receives only the generated inputs.

// rng is splitmix64: one add and two multiply-xorshift rounds per draw, so
// generating a 1024-key vector costs a few microseconds and the run
// measures the program, not the generator.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// below maps a draw onto [0, n) by multiply-shift; it reads the draw's high
// bits, leaving the low bits free for an independent decision.
func below(x, n uint64) uint64 {
	hi, _ := bits.Mul64(x, n)
	return hi
}

// streamSeed derives an independent generator per (seed, workload, client)
// so that clients never share or recycle keys.
func streamSeed(seed uint64, workload string, client int) uint64 {
	r := rng{s: seed}
	h := r.next()
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	r.s = h + uint64(client)*0x9e3779b97f4a7c15
	return r.next()
}

// missPerMille is the share of read keys drawn odd, which the even-valued
// domain does not hold.
const missPerMille = 100

// fillLookupKeys draws the lookup key law into keys: uniform over the 2·i
// domain of n values, one key in ten made odd so that it misses. Every
// vector is fresh: GoBatch permutes the caller's slice by shard, and a
// recycled, already-partitioned vector would make that pass free.
func fillLookupKeys(r *rng, keys []uint64, n uint64) {
	for i := range keys {
		x := r.next()
		k := below(x, n) << 1
		if x&1023 < missPerMille*1024/1000 {
			k |= 1
		}
		keys[i] = k
	}
}

// maxProbeChain caps the build tuples one join probe may match. The Zipf(1.2)
// build side gives its hottest key a tenth of all tuples; walking that chain
// stalls a shard for tens of milliseconds, and a uniform probe stream reaches
// such keys a handful of times per run, so p99 would be a lottery. Probes of
// the few dozen keys above the cap are redrawn; the chains stay in the table,
// and the walks below the cap still diverge by three orders of magnitude.
const maxProbeChain = 4096

// fillJoinKeys is fillLookupKeys for join probes, redrawing keys whose chain
// exceeds maxProbeChain.
func fillJoinKeys(r *rng, keys []uint64, expect []joinExpect) {
	n := uint64(len(expect))
	for i := range keys {
		x := r.next()
		u := below(x, n)
		for expect[u].hits > maxProbeChain {
			u = below(r.next(), n)
		}
		k := u << 1
		if x&1023 < missPerMille*1024/1000 {
			k |= 1
		}
		keys[i] = k
	}
}

// domainValues is the dictionary every workload serves: n values 2·i, so
// the global code of key k is k/2 and every odd key is absent.
func domainValues(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i) << 1
	}
	return v
}

// joinExpect is the oracle's answer for one dictionary key: how many build
// tuples carry it and the sum of their payloads.
type joinExpect struct {
	agg  uint64
	hits uint32
}

// joinBuild draws the build side (half its tuples on Zipf(1.2) hot keys,
// half uniform, as workload.JoinBuildIndices defines it) and, in the same
// pass, the per-key multiplicity and payload-sum table probes are verified
// against.
func joinBuild(seed uint64, domain, tuples int) ([]serve.BuildTuple, []joinExpect) {
	idx := workload.JoinBuildIndices(seed, domain, tuples, 0.5, 1.2)
	r := rng{s: seed ^ 0x6a09e667f3bcc908}
	build := make([]serve.BuildTuple, tuples)
	expect := make([]joinExpect, domain)
	for i, ix := range idx {
		p := uint32(r.next() >> 48)
		build[i] = serve.BuildTuple{Key: uint64(ix) << 1, Payload: p}
		expect[ix].hits++
		expect[ix].agg += uint64(p)
	}
	return build, expect
}

// Transaction op kinds of mixed_rw.
const (
	txRead uint8 = iota
	txInsert
	txDelete
)

// txOp is one generated point operation with the result the oracle expects.
type txOp struct {
	key  uint64
	want uint32 // expected code, serve.NotFound for a miss or a delete ack
	slot uint32 // index into the owning client's stripe tables
	kind uint8
}

// stripe is one mixed_rw client's private share of the key space: dictionary
// indices i with i mod clients == id, each with an even (initially present)
// and an odd (initially absent) key. Because no other client touches these
// keys, the client knows the exact state the service must hold for them and
// can check read-your-writes without coordination.
type stripe struct {
	id, clients uint64
	local       uint64 // indices owned: domain / clients
	hot         uint64 // the first fifth of them takes four fifths of the ops
	// state[slot] is the code a lookup of the slot's key must return
	// (serve.NotFound when absent); slot = 2·local index + key parity.
	state []uint32
	// busy[slot] guards in-flight requests: bit 7 marks an in-flight write,
	// the low bits count in-flight reads. The batcher may dispatch sealed
	// batches out of order, so the service orders two ops on one key only
	// when the first completed before the second was submitted; a write
	// therefore never shares a key with another in-flight op.
	busy []uint8
}

const (
	busyWrite   = 0x80
	busyReadMax = 0x7f
)

func newStripe(id, clients, domain int) *stripe {
	local := uint64(domain / clients)
	s := &stripe{
		id: uint64(id), clients: uint64(clients), local: local, hot: max(local/5, 1),
		state: make([]uint32, 2*local),
		busy:  make([]uint8, 2*local),
	}
	for l := uint64(0); l < local; l++ {
		s.state[2*l] = uint32(l*s.clients + s.id)
		s.state[2*l+1] = serve.NotFound
	}
	return s
}

// draw picks a slot by the 80/20 hotspot law; odd selects the slot's absent
// (insertable) key.
func (s *stripe) draw(x uint64, odd bool) uint32 {
	var l uint64
	if x&0xff < 205 { // 80 % of draws
		l = below(x, s.hot)
	} else {
		l = s.hot + below(x, max(s.local-s.hot, 1))
		if l >= s.local {
			l = s.local - 1
		}
	}
	slot := uint32(2 * l)
	if odd {
		slot |= 1
	}
	return slot
}

func (s *stripe) key(slot uint32) uint64 {
	l := uint64(slot >> 1)
	return (l*s.clients+s.id)<<1 | uint64(slot&1)
}

// fillTxn generates one transaction: 80 % lookups, 15 % inserts, 5 %
// deletes. Expected results are fixed here, at generation time, from the
// stripe's state: a key with an in-flight write is never drawn again, so
// every earlier write the state reflects has completed or cannot be seen.
func (s *stripe) fillTxn(r *rng, ops []txOp) {
	for i := range ops {
		x := r.next()
		var kind uint8
		switch p := x >> 32 % 100; {
		case p < 80:
			kind = txRead
		case p < 95:
			kind = txInsert
		default:
			kind = txDelete
		}
		odd := x>>40&1 == 1 // writes: half on absent keys, so the dictionary grows
		if kind == txRead {
			odd = x>>40&1023 < missPerMille*1024/1000
		}
		slot := s.draw(r.next(), odd)
		for tries := 0; !s.admit(slot, kind); tries++ {
			if tries == 16 { // a crowded hot set: fall back to a shared read
				kind = txRead
			}
			slot = s.draw(r.next(), odd)
		}
		op := txOp{key: s.key(slot), slot: slot, kind: kind}
		switch kind {
		case txRead:
			op.want = s.state[slot]
		case txInsert:
			op.want = uint32(x>>1) & 0x7fffffff
			s.state[slot] = op.want
		case txDelete:
			op.want = serve.NotFound
			s.state[slot] = serve.NotFound
		}
		ops[i] = op
	}
}

// admit reserves slot for an op of the given kind, or reports a conflict
// with an in-flight request.
func (s *stripe) admit(slot uint32, kind uint8) bool {
	b := s.busy[slot]
	if kind == txRead {
		if b&busyWrite != 0 || b == busyReadMax {
			return false
		}
		s.busy[slot] = b + 1
		return true
	}
	if b != 0 {
		return false
	}
	s.busy[slot] = busyWrite
	return true
}

// release returns a completed transaction's reservations.
func (s *stripe) release(ops []txOp) {
	for _, op := range ops {
		if op.kind == txRead {
			s.busy[op.slot]--
		} else {
			s.busy[op.slot] = 0
		}
	}
}
