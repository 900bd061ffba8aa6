package main

import (
	"slices"
	"testing"

	"repro/internal/serve"
)

// The seed is the only source of randomness: one seed gives identical
// vectors, probes and transactions; another seed gives different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	type drawn struct {
		lookups, probes []uint64
		txn             []txOp
		build           []serve.BuildTuple
	}
	draw := func(seed uint64) drawn {
		const domain = 1 << 12
		var d drawn
		var expect []joinExpect
		d.build, expect = joinBuild(streamSeed(seed, "join_probe", -1), domain, domain)
		r := rng{s: streamSeed(seed, "lookup_big", 0)}
		d.lookups = make([]uint64, 1024)
		for i := 0; i < 3; i++ { // the third vector, so the stream's state counts too
			fillLookupKeys(&r, d.lookups, domain)
		}
		r = rng{s: streamSeed(seed, "join_probe", 1)}
		d.probes = make([]uint64, 1024)
		fillJoinKeys(&r, d.probes, expect)
		r = rng{s: streamSeed(seed, "mixed_rw", 1)}
		st := newStripe(1, 2, domain)
		d.txn = make([]txOp, 256)
		for i := 0; i < 3; i++ {
			st.fillTxn(&r, d.txn)
			st.release(d.txn)
		}
		return d
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !slices.Equal(a.lookups, b.lookups) || !slices.Equal(a.probes, b.probes) ||
		!slices.Equal(a.txn, b.txn) || !slices.Equal(a.build, b.build) {
		t.Fatal("two generators with one seed disagree")
	}
	if slices.Equal(a.lookups, c.lookups) || slices.Equal(a.probes, c.probes) ||
		slices.Equal(a.txn, c.txn) || slices.Equal(a.build, c.build) {
		t.Fatal("a second seed reproduced the first seed's inputs")
	}
}

// Clients and successive instances of one run draw from different streams.
func TestStreamsDiffer(t *testing.T) {
	seen := map[uint64]bool{}
	for _, w := range []string{"lookup_big", "lookup_small"} {
		for c := -2; c < 8; c++ {
			s := streamSeed(7, w, c)
			if seen[s] {
				t.Fatalf("stream (%s, %d) repeats another", w, c)
			}
			seen[s] = true
		}
	}
}

// A transaction never puts a write on a key that another in-flight op
// touches, and every expected result follows from the writes before it.
func TestStripeOracle(t *testing.T) {
	const domain, clients = 1 << 10, 2
	st := newStripe(1, clients, domain)
	r := rng{s: 42}
	model := map[uint64]uint32{} // key -> code, for keys this stripe holds
	for l := 0; l < domain/clients; l++ {
		model[uint64(l*clients+1)<<1] = uint32(l*clients + 1)
	}
	var inflight [][]txOp
	for round := 0; round < 200; round++ {
		ops := make([]txOp, 64)
		st.fillTxn(&r, ops)
		touched := map[uint64]uint8{}
		for _, older := range inflight {
			for _, op := range older {
				touched[op.key] |= 1 << op.kind
			}
		}
		for _, op := range ops {
			if op.key>>1%clients != 1 {
				t.Fatalf("key %d is outside client 1's stripe", op.key)
			}
			if was := touched[op.key]; was&^(1<<txRead) != 0 || (op.kind != txRead && was != 0) {
				t.Fatalf("round %d: %d on key %d conflicts with an in-flight op", round, op.kind, op.key)
			}
			touched[op.key] |= 1 << op.kind
			switch op.kind {
			case txRead:
				want, ok := model[op.key]
				if !ok {
					want = serve.NotFound
				}
				if op.want != want {
					t.Fatalf("round %d: read of %d expects %d, model says %d", round, op.key, op.want, want)
				}
			case txInsert:
				model[op.key] = op.want
			case txDelete:
				delete(model, op.key)
			}
		}
		inflight = append(inflight, ops)
		if len(inflight) == 3 { // keep a window of transactions outstanding
			st.release(inflight[0])
			inflight = inflight[1:]
		}
	}
}
