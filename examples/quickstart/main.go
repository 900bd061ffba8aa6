// Quickstart: (1) build a Main dictionary on the simulated machine, run
// a batch of locate lookups sequentially and coroutine-interleaved, and
// compare simulated cycles — the paper's core result; (2) serve the same
// kind of index join as a sharded service, submitting a whole probe
// column in one vectorized call and streaming the join matches.
package main

import (
	"context"
	"fmt"

	"repro/internal/dict"
	"repro/internal/memsim"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	// A 256 MB dictionary: far beyond the simulated 25 MB LLC, so every
	// deep binary-search probe misses to DRAM.
	const dictBytes = 256 << 20
	n := workload.ElemsFor(dictBytes, 4)

	run := func(interleaved bool) (int64, []uint32) {
		e := memsim.New(memsim.DefaultConfig())
		d := dict.NewMainVirtual(e, n, workload.IntValue)
		values := workload.IntKeys(workload.UniformIndices(7, 10000, n))
		codes := make([]uint32, len(values))
		start := e.Now()
		if interleaved {
			d.LocateAllInterleaved(e, values, 6, codes)
		} else {
			d.LocateAll(e, values, codes)
		}
		return e.Now() - start, codes
	}

	seqCycles, seqCodes := run(false)
	interCycles, interCodes := run(true)
	for i := range seqCodes {
		if seqCodes[i] != interCodes[i] {
			panic("interleaved execution changed the results")
		}
	}

	fmt.Printf("dictionary: %d entries (%d MB)\n", n, dictBytes>>20)
	fmt.Printf("sequential:  %8d cycles (%.2f ms simulated)\n", seqCycles, memsim.Ms(seqCycles))
	fmt.Printf("interleaved: %8d cycles (%.2f ms simulated)\n", interCycles, memsim.Ms(interCycles))
	fmt.Printf("speedup: %.2fx with identical results\n", float64(seqCycles)/float64(interCycles))

	// Part 2: the same interleaving, operationalized as a service on real
	// memory. The domain holds the even numbers below 2000; the build
	// side gives key 2k multiplicity k%4. A whole probe column goes in
	// through one JoinBatch call (O(1) allocations, grouped by shard
	// without being reordered), the aggregates come back in probe order
	// and the matches stream back per build tuple.
	domain := make([]uint64, 1000)
	var build []serve.BuildTuple
	for i := range domain {
		key := uint64(i) * 2
		domain[i] = key
		for j := 0; j < i%4; j++ {
			build = append(build, serve.BuildTuple{Key: key, Payload: uint32(i + j)})
		}
	}
	svc, err := serve.New(domain, serve.WithShards(2), serve.WithBuild(build))
	if err != nil {
		panic(err)
	}
	probe := []uint64{2, 3, 6, 6, 1998}
	bf := svc.JoinBatch(context.Background(), probe)
	fmt.Printf("\njoin service: %d-key domain, %d build tuples, probe column %v\n",
		len(domain), len(build), probe)
	for i, r := range bf.WaitJoin() {
		fmt.Printf("  probe %4d → code %10d, %d hits, payload sum %d\n",
			probe[i], int32(r.Code), r.Hits, r.Agg)
	}
	matches := 0
	for m := range bf.Matches() {
		fmt.Printf("  match: key %d ⋈ payload %d\n", m.Key, m.Payload)
		matches++
	}
	fmt.Printf("streamed %d matches\n", matches)
	svc.Close()
}
