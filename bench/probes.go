package main

import (
	"runtime"
	"time"

	"repro/internal/coro"
	"repro/internal/native"
	"repro/internal/nativejoin"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// This file holds the single-layer probes of the traced run: each times one
// layer's public entry points alone, single-threaded, on data shaped like the
// workload's, so that a service-level number can be set against what its
// layers cost standalone. They run after the service is torn down.

var sink int // defeats dead-code elimination of probed calls

// prober runs the probes: each measures for budget, draws keys from r and
// writes its metrics into m.
type prober struct {
	budget time.Duration
	r      rng
	m      map[string]float64
}

// each times fns in turn, round-robin, until budget has gone into every one
// of them, and returns for each its nanoseconds per unit, a call doing units
// units of work: the quiet quarter of its calls, so that an episode of host
// interference inside the probe does not set the number, and round-robin, so
// that kernels whose ratio is reported see the same episodes. prep runs
// untimed before every call (fresh keys, so no probe turns cache-warm).
func (p *prober) each(units int, prep func(), fns ...func()) []float64 {
	calls := make([][]float64, len(fns))
	for busy := time.Duration(0); busy < p.budget*time.Duration(len(fns)); {
		for i, fn := range fns {
			if prep != nil {
				prep()
			}
			t0 := time.Now()
			fn()
			d := time.Since(t0)
			busy += d
			calls[i] = append(calls[i], float64(d.Nanoseconds())/float64(units))
		}
	}
	out := make([]float64, len(fns))
	for i, c := range calls {
		out[i] = quiet(c, false)
	}
	return out
}

func (p *prober) perUnit(units int, prep, fn func()) float64 { return p.each(units, prep, fn)[0] }

// spinFrame is a coroutine that touches no memory: every Resume is pure
// switch cost.
type spinFrame struct{ left int }

func (f *spinFrame) step() (int, bool) {
	f.left--
	return f.left, f.left == 0
}

func (p *prober) coro() {
	const lookups, steps, group = 1024, 8, 16
	pool := coro.NewSlotPool(func(f *spinFrame) func() (int, bool) { return f.step })
	d := coro.NewDrainer[int](group)
	start := func(slot, _ int) coro.Handle[int] {
		f, h := pool.Slot(slot)
		f.left = steps
		return h
	}
	p.m["coro.resume_ns"] = p.perUnit(lookups*steps, nil, func() {
		d.DrainSlots(lookups, group, start, func(_, r int) { sink += r })
	})
}

// native times the binary-search kernels on a table of one shard's
// size, 1024 fresh keys per call.
func (p *prober) native(tableLen int) {
	table := domainValues(tableLen)
	keys := make([]uint64, 1024)
	out := make([]int, len(keys))
	fresh := func() { fillLookupKeys(&p.r, keys, uint64(tableLen)) }
	coroAt := func(group int) func() {
		return func() { native.RunFrameDirect(table, keys, group, out) }
	}
	ns := p.each(len(keys), fresh, func() { native.RunSequential(table, keys, out) }, coroAt(1), coroAt(6), coroAt(16))
	p.m["native.seq_ns_per_key"] = ns[0]
	p.m["native.coro_g1_ns_per_key"] = ns[1]
	p.m["native.coro_g6_ns_per_key"] = ns[2]
	p.m["native.coro_g16_ns_per_key"] = ns[3]
	p.m["native.interleave_gain"] = ns[0] / min(ns[2], ns[3])
	sink += out[0]

	// One epoch rebuild's merge: a full 4096-entry delta, half upserts of
	// present keys, half inserts, one in eight a delete, into the table.
	const delta = 4096
	vals := make([]uint32, tableLen)
	upKeys, upVals, del := make([]uint64, delta), make([]uint32, delta), make([]bool, delta)
	stride := max(uint64(tableLen)/delta, 1)
	for i := range upKeys {
		upKeys[i] = uint64(i)*stride<<1 | uint64(i&1)
		del[i] = i%8 == 0
	}
	var merged int
	p.m["native.merge_ns_per_entry"] = p.perUnit(1, nil, func() {
		k, _ := native.MergeSorted(table, vals, upKeys, upVals, del)
		merged = len(k)
	}) / float64(max(merged, 1))
}

// join times the hash-probe kernels on one shard's share of the build
// side, probed with the codes that shard's found keys resolve to (chains
// over maxProbeChain excepted, as in the workload).
func (p *prober) join(build []serve.BuildTuple, expect []joinExpect, shards int) {
	t := nativejoin.New(len(build) / shards)
	for _, b := range build {
		if code := b.Key >> 1; code%uint64(shards) == 0 {
			t.Insert(code, b.Payload)
		}
	}
	keys := make([]uint64, 1024)
	out := make([]nativejoin.Result, len(keys))
	fresh := func() {
		for i := range keys {
			code := below(p.r.next(), uint64(len(expect)/shards)) * uint64(shards)
			for expect[code].hits > maxProbeChain {
				code = below(p.r.next(), uint64(len(expect)/shards)) * uint64(shards)
			}
			keys[i] = code
		}
	}
	ns := p.each(len(keys), fresh,
		func() { t.RunSequential(keys, out) },
		func() { t.RunCoroReuse(keys, 6, out) },
		func() { t.RunCoroReuse(keys, 16, out) })
	p.m["nativejoin.seq_ns_per_probe"] = ns[0]
	p.m["nativejoin.coro_g6_ns_per_probe"] = ns[1]
	p.m["nativejoin.coro_g16_ns_per_probe"] = ns[2]
	p.m["nativejoin.interleave_gain"] = ns[0] / min(ns[1], ns[2])
	sink += int(out[0].Hits)
}

// wire times the codec on 1024-key request and response frames, and
// counts what one codec call allocates when encoding into a reused buffer.
func (p *prober) wire() {
	keys := make([]uint64, 1024)
	fillLookupKeys(&p.r, keys, 1<<16)
	kb := wire.KeyBatch{Hdr: wire.ReqHeader{ID: 1}, Keys: keys}
	rs := wire.Results{ID: 1, Res: make([]wire.Result, len(keys))}
	for i := range rs.Res {
		rs.Res[i] = wire.Result{Code: uint32(keys[i] >> 1), Flags: uint8(keys[i]&1) ^ 1}
	}
	var buf []byte
	encKeys := func() { buf = wire.AppendKeyBatch(buf[:0], kb) }
	encRes := func() { buf = wire.AppendResults(buf[:0], rs) }
	// A frame encodes in under a microsecond: a timed call is a burst of them.
	const burst = 64
	bursts := func(fn func()) func() {
		return func() {
			for i := 0; i < burst; i++ {
				fn()
			}
		}
	}
	keyFrame := wire.AppendKeyBatch(nil, kb)
	resFrame := wire.AppendResults(nil, rs)
	decKeys := func() {
		b, err := wire.DecodeKeyBatch(keyFrame)
		if err != nil {
			panic(err) // a frame this file just encoded
		}
		sink += len(b.Keys)
	}
	decRes := func() {
		b, err := wire.DecodeResults(resFrame)
		if err != nil {
			panic(err)
		}
		sink += len(b.Res)
	}
	p.m["wire.enc_keys_ns_per_key"] = p.perUnit(burst*len(keys), nil, bursts(encKeys))
	p.m["wire.dec_keys_ns_per_key"] = p.perUnit(burst*len(keys), nil, bursts(decKeys))
	p.m["wire.enc_results_ns_per_key"] = p.perUnit(burst*len(keys), nil, bursts(encRes))
	p.m["wire.dec_results_ns_per_key"] = p.perUnit(burst*len(keys), nil, bursts(decRes))

	const rounds = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		encKeys()
		decKeys()
		encRes()
		decRes()
	}
	runtime.ReadMemStats(&after)
	p.m["wire.codec_allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / (4 * rounds)
}

func (p *prober) obs() {
	const batch = 4096
	var h obs.Histogram
	v := int64(1)
	p.m["obs.hist_observe_ns"] = p.perUnit(batch, nil, func() {
		for i := 0; i < batch; i++ {
			h.Observe(v)
			v = v*3%1000003 + 1
		}
	})
	ring := obs.NewSpanRing(batch)
	p.m["obs.span_record_ns"] = p.perUnit(batch, nil, func() {
		for i := 0; i < batch; i++ {
			ring.Record(obs.SpanAdmit, 0, uint64(i), 1, 0)
		}
	})
}
