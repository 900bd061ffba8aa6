package client

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// TestLoneOpsFlyAsLoneFrames: N sequential point ops, each waited for,
// fly as N one-op frames — none waits for company.
func TestLoneOpsFlyAsLoneFrames(t *testing.T) {
	rm := dialTestRemote(t)
	defer rm.Close()
	ctx := context.Background()
	before := rm.Stats().FramesOut
	const n = 100
	for i := 0; i < n; i++ {
		if r := rm.Lookup(ctx, uint64(i)*2); !r.Found || r.Code != uint32(i) {
			t.Fatalf("lookup(%d) = %+v", i*2, r)
		}
	}
	if got := rm.Stats().FramesOut - before; got != n {
		t.Fatalf("%d sequential lookups flew as %d frames, want %d", n, got, n)
	}
}

// TestConcurrentCallersShareFrames: 64 synchronous callers on one
// connection gather behind the frame in flight, more than one op per
// frame on average.
func TestConcurrentCallersShareFrames(t *testing.T) {
	rm := dialTestRemote(t)
	defer rm.Close()
	const callers, each = 64, 50
	before := rm.Stats().FramesOut
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := uint64((c*each+i)%128) * 2
				if r := rm.Lookup(context.Background(), k); !r.Found || r.Code != uint32(k/2) {
					t.Errorf("lookup(%d) = %+v", k, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	frames := rm.Stats().FramesOut - before
	t.Logf("%d ops in %d frames", callers*each, frames)
	if frames >= callers*each {
		t.Fatalf("%d ops flew as %d frames: callers did not gather", callers*each, frames)
	}
}

// mute is a server that completes the handshake and then reads request
// frames without ever answering one.
type mute struct {
	ln   net.Listener
	conn chan net.Conn
	done chan struct{}
}

func newMute(t *testing.T) *mute {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := &mute{ln: ln, conn: make(chan net.Conn, 1), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		m.conn <- nc
		fr := wire.NewFrameReader(bufio.NewReader(nc), 0)
		if _, _, err := fr.Next(); err != nil {
			return
		}
		ack := wire.AppendHelloAck(nil, wire.HelloAck{Version: wire.Version, Shards: 1})
		if wire.WriteFrame(nc, wire.MsgHelloAck, ack) != nil {
			return
		}
		for {
			if _, _, err := fr.Next(); err != nil {
				return
			}
		}
	}()
	return m
}

// TestWindowReleasedWhenFrameNeverAnswered: a lone op queued behind a
// frame whose response never arrives stays unsent, and resolves with
// serve.ErrClosed when the Remote closes or the connection dies, as does
// any op submitted after that; no goroutine outlives the Remote.
func TestWindowReleasedWhenFrameNeverAnswered(t *testing.T) {
	for _, end := range []string{"close", "conn death"} {
		t.Run(end, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := newMute(t)
			rm, err := Dial(m.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			sent := rm.Stats().FramesOut
			first := rm.Go(ctx, 2)
			behind := rm.Go(ctx, 4)
			if got := rm.Stats().FramesOut - sent; got != 1 {
				t.Fatalf("%d frames sent, want 1: the second op must wait behind the first", got)
			}
			if end == "close" {
				rm.Close()
			} else {
				(<-m.conn).Close()
			}
			resolves := func(name string, f *Future) {
				t.Helper()
				errc := make(chan error, 1)
				go func() { errc <- f.Err() }()
				select {
				case err := <-errc:
					if err != serve.ErrClosed {
						t.Fatalf("%s op: %v, want ErrClosed", name, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s op never resolved after %s", name, end)
				}
			}
			resolves("first", first)
			resolves("queued", behind)
			// Refusing the queued column must reopen the window too, or
			// an op submitted now would wait behind it forever.
			resolves("late", rm.Go(ctx, 6))
			rm.Close()
			m.ln.Close()
			<-m.done
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines outlive Close, %d before Dial", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}
