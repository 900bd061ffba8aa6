// Package repro reproduces "Interleaving with Coroutines: A Practical
// Approach for Robust Index Joins" (Psaropoulos, Legler, May, Ailamaki;
// PVLDB 11(2), 2017).
//
// The repository contains, under internal/:
//
//   - memsim: a deterministic cycle-level model of a Haswell-class memory
//     hierarchy (caches, line-fill buffers, TLBs, page walks) that the
//     index algorithms execute against;
//   - coro: a coroutine library with three backends (stackless frames,
//     iter.Pull runtime coroutines, goroutine+channel) and the paper's
//     sequential/interleaved schedulers;
//   - search, csbtree, dict, column: binary search, CSB+-trees, Main and
//     Delta dictionaries, and an IN-predicate query pipeline, each with
//     sequential, GP, AMAC, and CORO execution;
//   - hashjoin, pagebtree, native: the paper's Section 6 extensions and
//     real-hardware counterparts;
//   - nativejoin: the hash-join probe on real memory — a bucket-chained
//     hash table with sequential, AMAC, and frame-coroutine interleaved
//     probe kernels;
//   - exp: one runner per paper table and figure;
//   - serve: a sharded, batch-admission index-join service over the
//     interleaved kernels, with a typed-operation request surface (Op:
//     lookup/join), two admission paths — point futures under a
//     group-commit batcher, and vectorized whole-column submission
//     (GoBatch/JoinBatch, O(1) allocations, answered in submission
//     order) — context-aware drops counted in Stats, streaming
//     join matches via iter.Seq[Match], an adaptive per-shard
//     interleaving group size, and end-to-end join execution: per-shard
//     build-side hash-table partitions probed in two interleaved stages,
//     dictionary search then chain walk (the bench/ module drives it under
//     closed and paced load; cmd/isiserved serves it over the wire).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record. The benchmarks in bench_test.go regenerate
// every table and figure at a reduced scale; cmd/isibench runs the full
// grid.
package repro
