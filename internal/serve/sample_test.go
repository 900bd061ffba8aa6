package serve

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/native"
)

// checkSamples asserts the page-sample invariant on every shard's current
// epoch: top[j] == table[j·PageKeys] and len(top) == ceil(n/PageKeys).
func checkSamples(t *testing.T, s *Service) {
	t.Helper()
	for _, sh := range s.shards {
		ep := sh.epoch.Load()
		x := &ep.idx
		n := len(x.table)
		if want := (n + native.PageKeys - 1) / native.PageKeys; len(x.top) != want {
			t.Fatalf("shard %d epoch %d: len(top) = %d over %d keys, want %d", sh.id, ep.seq, len(x.top), n, want)
		}
		for j, v := range x.top {
			if v != x.table[j*native.PageKeys] {
				t.Fatalf("shard %d epoch %d: top[%d] = %d, want table[%d] = %d", sh.id, ep.seq, j, v, j*native.PageKeys, x.table[j*native.PageKeys])
			}
		}
	}
}

// TestSampleAfterNew: New's partition pass samples every shard's column,
// whatever shape the domain arrives in, for lookup and join services.
func TestSampleAfterNew(t *testing.T) {
	const n = 5000 // ≈ 1667 keys a shard: three full pages and a partial one
	domain := make([]uint64, n)
	for i := range domain {
		domain[i] = uint64(3*i + 7)
	}
	reversed := slices.Clone(domain)
	slices.Reverse(reversed)
	withDups := append(slices.Clone(reversed), domain[:n/3]...)
	domains := map[string][]uint64{
		"sorted": domain, "unsorted": reversed, "duplicates": withDups, "empty": nil, "one-key": {42},
	}
	for name, in := range domains {
		for _, join := range []bool{false, true} {
			opts, kind := []Option{WithShards(3)}, "/lookup"
			if join {
				opts, kind = append(opts, WithBuild([]BuildTuple{{Key: 42, Payload: 1}, {Key: 7, Payload: 2}})), "/join"
			}
			s, err := New(in, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name+kind, func(t *testing.T) { checkSamples(t, s) })
			s.Close()
		}
	}
}

// TestSampleAcrossInstalls: the merge cursor samples every merged column
// as it emits it, so the invariant holds after each install — while inserts
// grow a one-shard service across a page boundary and deletes shrink it
// back below one page — and lookups across the windows stay right.
func TestSampleAcrossInstalls(t *testing.T) {
	const base = native.PageKeys - 12 // even keys 0, 2, …: one page short of full
	domain := make([]uint64, base)
	for i := range domain {
		domain[i] = uint64(2 * i)
	}
	for _, join := range []bool{false, true} {
		opts := []Option{WithShards(1), WithAdmission(1, 50*time.Microsecond), WithRebuildThreshold(8)}
		name := "lookup"
		if join {
			opts, name = append(opts, WithBuild(nil)), "join"
		}
		t.Run(name, func(t *testing.T) {
			s, err := New(domain, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			ref := make(map[uint64]uint32, 2*base)
			for i, k := range domain {
				ref[k] = uint32(i)
			}
			// await touches the shard until the install that brings its
			// column to want keys has landed, then checks the sample and
			// every key of [0, 2·base+64) against the reference.
			await := func(want int) {
				t.Helper()
				probe := make([]uint64, 2*base+64)
				for i := range probe {
					probe[i] = uint64(i)
				}
				for deadline := time.Now().Add(2 * time.Second); len(s.shards[0].epoch.Load().idx.table) != want; {
					if time.Now().After(deadline) {
						t.Fatalf("column stuck at %d keys, want %d", len(s.shards[0].epoch.Load().idx.table), want)
					}
					s.GoBatch(ctx, probe[:1]).Wait()
				}
				checkSamples(t, s)
				bf := s.GoBatch(ctx, probe)
				for i, r := range bf.Wait() {
					k := bf.Keys()[i]
					code, ok := ref[k]
					if r.Found != ok || (ok && r.Code != code) {
						t.Fatalf("lookup(%d) = %+v, want %d (present %v)", k, r, code, ok)
					}
				}
			}
			// Grow: 40 fresh odd keys (five freezes of 8) take the shard
			// from 500 to 540 keys, across the first page boundary.
			for i := 0; i < 40; i++ {
				k := uint64(2*i*6 + 1)
				s.Insert(ctx, k, uint32(10000+i)).Wait()
				ref[k] = uint32(10000 + i)
			}
			await(base + 40)
			// Shrink: 80 deletes (ten freezes) leave 460 keys, below one page.
			for i := 0; i < 80; i++ {
				k := uint64(4 * i)
				s.Delete(ctx, k).Wait()
				delete(ref, k)
			}
			await(base + 40 - 80)
		})
	}
}
