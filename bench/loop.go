package main

import (
	"slices"
	"syscall"
	"time"
)

// This file is the load generator's control flow: the closed loop, the
// open-loop pacer, and the estimators over the latencies they record. It
// knows nothing about the service; pacer_test.go drives it with a fake
// clock and a stub.

// clock is the time source of one run, as an offset from the run's start.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock sleeps with nanosleep(2) rather than a runtime timer: an idle Go
// scheduler parks in epoll_wait, whose timeout is whole milliseconds, so a
// timer due in 300 µs fires up to 700 µs late — more than a paced interval's
// worth of error charged to the program.
type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

func (c wallClock) sleepUntil(t time.Duration) {
	for d := t - c.now(); d > 0; d = t - c.now() {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// loader is what the loops drive: one load-generating goroutine's requests.
// issue generates and submits one request; intended is its scheduled send
// time in the paced phase and negative in the closed phase. completeOldest
// blocks until the oldest outstanding request completes, then verifies and
// records it. A loader observes its own completions; there are no
// completer goroutines.
type loader interface {
	issue(intended time.Duration)
	completeOldest()
	inflight() int
}

// runClosed keeps window requests in flight until end, submitting the next
// when the oldest completes, then drains.
func runClosed(clk clock, c loader, window int, end time.Duration) {
	for clk.now() < end {
		for c.inflight() >= window {
			c.completeOldest()
		}
		c.issue(-1)
	}
	for c.inflight() > 0 {
		c.completeOldest()
	}
}

// runPaced sends n requests on a fixed schedule, request k at
// start + k·interval, whether or not earlier ones completed. Between sends
// it observes completions; it never waits on a completion once a send is
// due, unless maxInflight requests are outstanding. Latency is taken from
// the scheduled time, so a stall is charged to every request it delays.
func runPaced(clk clock, c loader, start, interval time.Duration, n, maxInflight int) {
	for k := 0; k < n; k++ {
		due := start + time.Duration(k)*interval
		for c.inflight() > 0 && (clk.now() < due || c.inflight() >= maxInflight) {
			c.completeOldest()
		}
		clk.sleepUntil(due)
		c.issue(due)
	}
	for c.inflight() > 0 {
		c.completeOldest()
	}
}

// sample is one request's latency with the time it is attributed to: its
// scheduled send time in the paced phase, its submit time in the closed one.
type sample struct {
	at, lat time.Duration
}

// quantile is the nearest-rank q-quantile of sorted values, 0 when empty.
func quantile[T float64 | time.Duration](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedLatencies(s []sample) []time.Duration {
	l := make([]time.Duration, len(s))
	for i, x := range s {
		l[i] = x.lat
	}
	slices.Sort(l)
	return l
}

// byWindow cuts [start, start+span) into n consecutive windows and returns
// each window's latencies, sorted, by the time each sample is attributed to.
func byWindow(s []sample, start, span time.Duration, n int) [][]time.Duration {
	per := make([][]time.Duration, n)
	for _, x := range s {
		w := min(max(int(int64(x.at-start)*int64(n)/int64(span)), 0), n-1)
		per[w] = append(per[w], x.lat)
	}
	for _, l := range per {
		slices.Sort(l)
	}
	return per
}

// windowQuantiles is the q-quantile of every non-empty window.
func windowQuantiles(per [][]time.Duration, q float64) []float64 {
	var out []float64
	for _, l := range per {
		if len(l) > 0 {
			out = append(out, float64(quantile(l, q)))
		}
	}
	return out
}

// quiet reduces one metric's per-window values to the run's value: the mean
// of the quarter of the windows on the side an undisturbed host produces —
// the lowest for a cost, the highest for a rate. Interference from other
// tenants of the host arrives in episodes of a second or so and only ever
// makes a window worse, so the good quarter estimates the program alone,
// where a mean or median over all windows would move with however many the
// episodes happened to cover. A hiccup in one window leaves it alone; a
// regression of the program is in every window and moves it.
func quiet(perWindow []float64, higherBetter bool) float64 {
	v := slices.Sorted(slices.Values(perWindow))
	if higherBetter {
		slices.Reverse(v)
	}
	v = v[:max(len(v)/4, min(len(v), 1))]
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// median of sorted values: the mean of the middle two for an even count.
func median[T float64 | time.Duration](sorted []T) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
