package main

import (
	"testing"
	"time"
)

// fakeClock is virtual time: sleeping and waiting advance it, nothing else.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// stubLoader is a one-server FIFO system with a fixed service time that
// stalls once: request stallAt takes stall longer.
type stubLoader struct {
	clk          *fakeClock
	service      time.Duration
	stallAt      int
	stall        time.Duration
	serverFree   time.Duration
	fifo         [][2]time.Duration // intended, finish
	issued       int
	samples      []sample
	maxInflights int
}

func (s *stubLoader) inflight() int { return len(s.fifo) }

func (s *stubLoader) issue(intended time.Duration) {
	fin := max(s.clk.now(), s.serverFree) + s.service
	if s.issued == s.stallAt {
		fin += s.stall
	}
	s.serverFree = fin
	s.issued++
	s.fifo = append(s.fifo, [2]time.Duration{intended, fin})
	s.maxInflights = max(s.maxInflights, len(s.fifo))
}

func (s *stubLoader) completeOldest() {
	r := s.fifo[0]
	s.fifo = s.fifo[1:]
	s.clk.sleepUntil(r[1])
	s.samples = append(s.samples, sample{at: r[0], lat: s.clk.now() - r[0]})
}

// A stall must be charged to every request it delays: each request that was
// due while the server was stalled is timed from when it was due, not from
// when the generator got round to sending it.
func TestPacedLoopChargesStallToDelayedRequests(t *testing.T) {
	const (
		interval = time.Millisecond
		n        = 1000
		stallAt  = 100
		stall    = 50 * time.Millisecond
	)
	clk := &fakeClock{}
	s := &stubLoader{clk: clk, service: 100 * time.Microsecond, stallAt: stallAt, stall: stall}
	runPaced(clk, s, 0, interval, n, pacedMaxInflight)

	if len(s.samples) != n {
		t.Fatalf("completed %d requests, want %d: the pacer skipped sends", len(s.samples), n)
	}
	if s.maxInflights > pacedMaxInflight {
		t.Fatalf("%d requests in flight, cap %d", s.maxInflights, pacedMaxInflight)
	}
	stallEnd := stallAt*interval + s.service + stall
	delayed := 0
	for k, x := range s.samples {
		due := time.Duration(k) * interval
		if x.at != due {
			t.Fatalf("request %d attributed to %v, due at %v", k, x.at, due)
		}
		switch {
		case k < stallAt:
			if x.lat != s.service {
				t.Fatalf("request %d before the stall: latency %v, want %v", k, x.lat, s.service)
			}
		case due < stallEnd:
			delayed++
			if x.lat < stallEnd-due {
				t.Fatalf("request %d was due %v before the stall ended but is charged only %v", k, stallEnd-due, x.lat)
			}
		}
	}
	if delayed < int(stall/interval) {
		t.Fatalf("only %d requests were due during the stall, want at least %d", delayed, stall/interval)
	}
	if last := s.samples[n-1].lat; last != s.service {
		t.Fatalf("latency did not recover after the stall: last request %v, want %v", last, s.service)
	}
}

// The closed loop keeps exactly window requests in flight and drains.
func TestClosedLoopWindow(t *testing.T) {
	clk := &fakeClock{}
	s := &stubLoader{clk: clk, service: time.Millisecond, stallAt: -1}
	runClosed(clk, s, 4, 100*time.Millisecond)
	if s.maxInflights != 4 {
		t.Fatalf("max in flight %d, want 4", s.maxInflights)
	}
	if s.inflight() != 0 || len(s.samples) != s.issued {
		t.Fatalf("not drained: %d in flight, %d of %d completed", s.inflight(), len(s.samples), s.issued)
	}
}

// The windowed p99 ignores a hiccup confined to one window and follows a tail
// that is in every window.
func TestWindowedP99(t *testing.T) {
	const span, windows = 6 * time.Second, 12
	base := func() []sample {
		var s []sample
		for i := 0; i < 6000; i++ {
			lat := time.Millisecond
			if i%50 == 0 { // a steady 2 % tail
				lat = 3 * time.Millisecond
			}
			s = append(s, sample{at: time.Duration(i) * time.Millisecond, lat: lat})
		}
		return s
	}
	raw := func(s []sample) time.Duration { return quantile(sortedLatencies(s), 0.99) }
	windowed := func(s []sample) time.Duration {
		return time.Duration(quiet(windowQuantiles(byWindow(s, 0, span, windows), 0.99), false))
	}

	if got := windowed(base()); got != 3*time.Millisecond {
		t.Fatalf("steady tail: windowed p99 %v, want 3ms", got)
	}

	// One hiccup: 100 requests in one window take 80 ms. The raw p99 jumps;
	// the quiet quarter of the windows' p99s does not.
	spike := base()
	for i := 2500; i < 2600; i++ {
		spike[i].lat = 80 * time.Millisecond
	}
	if raw(spike) != 80*time.Millisecond {
		t.Fatalf("the spike should move the raw p99, got %v", raw(spike))
	}
	if got := windowed(spike); got != 3*time.Millisecond {
		t.Fatalf("single-window spike moved the windowed p99 to %v", got)
	}

	// A real tail regression is in every window and moves it.
	worse := base()
	for i := range worse {
		if i%50 == 0 {
			worse[i].lat = 9 * time.Millisecond
		}
	}
	if got := windowed(worse); got != 9*time.Millisecond {
		t.Fatalf("tail regression in every window: windowed p99 %v, want 9ms", got)
	}
}
