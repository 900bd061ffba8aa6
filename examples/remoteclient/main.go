// Command remoteclient is the client-package quickstart: dial a
// running cmd/isiserved, issue one of each request shape, and print
// what comes back. It exits non-zero if an answer is wrong, so a script
// can use it as a smoke test of a server.
//
// Start a server, then run this against it:
//
//	go run ./cmd/isiserved -listen localhost:7070 -dict 1 -build 1
//	go run ./examples/remoteclient -addr localhost:7070
//
// The server's domain holds even keys only (value of code i is 2i), so
// even keys hit and odd keys miss — the misses below are deliberate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/client"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "isiserved address")
	tenant := flag.String("tenant", "quickstart", "tenant identity for the server's quota accounting")
	flag.Parse()

	// One Remote multiplexes everything; WithConns(4) fans requests over
	// four connections round-robin. Point ops of every kind coalesce
	// client-side into one op column per connection, which the server
	// admits as one column, exactly like the ApplyBatch below. Nothing
	// waits on a timer: a column flies at once when its connection has
	// no coalesced frame in flight, and otherwise when that frame is
	// answered (or at 64 ops), so a lone op flies alone while concurrent
	// point traffic still forms the dense batches the interleaved
	// kernels want.
	rm, err := client.Dial(*addr, client.WithConns(4), client.WithTenant(*tenant))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dial:", err)
		os.Exit(1)
	}
	defer rm.Close()
	ctx := context.Background()
	fmt.Printf("connected: server has %d shards\n", rm.Shards())

	// Point lookup: the same serve.Result an in-process caller gets.
	for _, key := range []uint64{4, 5} {
		r := rm.Lookup(ctx, key)
		fmt.Printf("lookup(%d): found=%v code=%d\n", key, r.Found, r.Code)
		check(r.Found == (key%2 == 0) && (!r.Found || r.Code == uint32(key/2)), "lookup(%d) = %+v", key, r)
	}

	// Writes: insert then read back, delete then miss.
	rm.Insert(ctx, 5, 1234).Wait()
	r := rm.Lookup(ctx, 5)
	fmt.Printf("after insert(5): %+v\n", r)
	check(r == serve.Result{Code: 1234, Found: true}, "lookup after insert(5) = %+v", r)
	rm.Delete(ctx, 5).Wait()
	r = rm.Lookup(ctx, 5)
	fmt.Printf("after delete(5): %+v\n", r)
	check(!r.Found, "lookup after delete(5) = %+v", r)

	// One op column mixing kinds: results by position, and a read sees
	// the column's own earlier write to its key.
	ops := []serve.Op{
		{Kind: serve.OpInsert, Key: 7, Val: 99},
		{Kind: serve.OpLookup, Key: 7},
		{Kind: serve.OpDelete, Key: 7},
		{Kind: serve.OpLookup, Key: 7},
	}
	res := rm.ApplyBatch(ctx, ops).Wait()
	fmt.Printf("ApplyBatch(insert 7, lookup 7, delete 7, lookup 7): %+v\n", res)
	check(len(res) == 4 && res[1] == serve.Result{Code: 99, Found: true} && !res[3].Found, "ApplyBatch = %+v", res)

	// Vectorized lookup column with a deadline: the ctx deadline rides
	// the request header and is enforced server-side — expired batches
	// come back with Dropped results, exactly as in-process.
	keys := []uint64{0, 2, 4, 6, 8, 7}
	bctx, cancel := context.WithTimeout(ctx, time.Second)
	bf := rm.GoBatch(bctx, keys)
	res = bf.Wait()
	cancel()
	hits := 0
	for _, r := range res {
		if r.Found {
			hits++
		}
	}
	fmt.Printf("GoBatch(%v): %d/%d hits (dropped %d)\n", keys, hits, len(keys), bf.Dropped())
	check(hits == len(keys)-1 || bf.Dropped() > 0, "GoBatch: %d hits of %d even keys", hits, len(keys)-1)

	// Join probes stream their matches; the aggregate rides JoinResult.
	jf := rm.JoinBatch(ctx, []uint64{2, 4, 6})
	for _, jr := range jf.WaitJoin() {
		fmt.Printf("join: code=%d hits=%d agg=%d\n", jr.Code, jr.Hits, jr.Agg)
	}
	var n, hitsum uint32
	for range jf.Matches() {
		n++
	}
	for _, jr := range jf.WaitJoin() {
		hitsum += jr.Hits
	}
	fmt.Printf("join matches streamed: %d\n", n)
	check(n == hitsum, "%d join matches streamed, hits add up to %d", n, hitsum)

	// Range scan: ordered (key, code) entries, streamed in chunks.
	rf := rm.RangeBatch(ctx, []serve.Op{serve.RangeOp(0, 20, 0)})
	rf.Wait()
	ents := rf.Collect(0)
	for _, e := range ents {
		fmt.Printf("range entry: key=%d code=%d\n", e.Key, e.Code)
	}
	check(len(ents) == 11, "range [0, 20]: %d entries, want the 11 even keys", len(ents))

	// Client-observed traffic summary.
	cs := rm.Stats()
	fmt.Printf("stats: %d ops over %d conns, %d dropped, %d shed, p50 %v p99 %v\n",
		cs.Ops, cs.Conns, cs.Dropped, cs.Shed, cs.P50, cs.P99)
	check(cs.Shed == 0, "%d ops shed", cs.Shed)
}

// check exits non-zero with the message when an answer is wrong.
func check(ok bool, format string, args ...any) {
	if !ok {
		fmt.Fprintf(os.Stderr, "remoteclient: wrong answer: "+format+"\n", args...)
		os.Exit(1)
	}
}
