package wire

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestSlotBound pins the per-connection bound: one raw connection
// pipelines thousands of small request frames while reading its
// responses slowly, and the server never has more than connSlots of its
// requests in flight — the frames beyond that wait in the socket — so
// its goroutines stay bounded by the slot constant, not by the frames
// sent (a responder per admitted frame peaked above 3000 here). Every
// request still gets exactly one terminal response, and Close leaves no
// goroutine behind.
func TestSlotBound(t *testing.T) {
	domain := make([]uint64, 256)
	for i := range domain {
		domain[i] = uint64(i) * 2
	}
	svc, err := serve.New(domain, serve.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := NewServer(svc, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base := runtime.NumGoroutine() // service, accept loop, this test

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := WriteFrame(nc, MsgHello, AppendHello(nil, Hello{Version: Version})); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(nc, 0)
	if tp, _, err := fr.Next(); err != nil || tp != MsgHelloAck {
		t.Fatalf("handshake: %v %v", tp, err)
	}

	const frames = 4000
	go func() { // the pipelining writer: 8- and 72-key frames alternate
		var buf []byte
		for id := uint64(1); id <= frames; id++ {
			keys := make([]uint64, 8+(id%2)*64)
			for i := range keys {
				keys[i] = (id + uint64(i)) % 600
			}
			buf = AppendKeyBatch(BeginFrame(buf, MsgLookupBatch), KeyBatch{Hdr: ReqHeader{ID: id}, Keys: keys})
			EndFrame(buf)
			if _, err := nc.Write(buf); err != nil {
				t.Errorf("write frame %d: %v", id, err)
				return
			}
		}
	}()
	var peak atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
				peak.Store(max(peak.Load(), int64(runtime.NumGoroutine())))
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	seen := make(map[uint64]bool, frames)
	for len(seen) < frames {
		tp, p, err := fr.Next()
		if err != nil || tp != MsgResults {
			t.Fatalf("after %d responses: %v %v", len(seen), tp, err)
		}
		id, recs, err := SplitResults(p)
		if err != nil || seen[id] || len(recs)/ResultSize != int(8+(id%2)*64) {
			t.Fatalf("response %d: %d records, repeated %v, %v", id, len(recs)/ResultSize, seen[id], err)
		}
		seen[id] = true
		if len(seen)%64 == 0 {
			time.Sleep(200 * time.Microsecond) // the slow reader
		}
	}
	close(stop)
	<-sampled
	// This connection's read loop and writer, its responders — a slot is
	// free again once its terminal frame is written, which can be before
	// the responder that queued it has returned, so up to two per slot —
	// plus the test's own writer and sampler.
	if limit := int64(base + 2 + 2*connSlots + 2); peak.Load() > limit {
		t.Fatalf("%d goroutines at peak, want at most %d (%d before the connection, %d slots)",
			peak.Load(), limit, base, connSlots)
	}

	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() >= base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the connection (accept loop included)", runtime.NumGoroutine(), base)
		}
	}
}
