package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// This file reads the process and service gauges the metrics need: resident
// set size, goroutine count, and the service's backlog gauges on a 100 ms
// tick, and process CPU time at phase boundaries.

// sampler polls gauges every sampleEvery from start until stop and keeps
// their maxima.
type sampler struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once

	mu         sync.Mutex
	svc        *serve.Service // backlog gauges are read while set
	rssPeak    int64          // bytes
	goroutines int
	frozenGens int
	deltaLen   int
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.tick()
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.tick()
			}
		}
	}()
	return s
}

// watch starts (or with nil stops) sampling svc's backlog gauges.
func (s *sampler) watch(svc *serve.Service) {
	s.mu.Lock()
	s.svc = svc
	s.mu.Unlock()
}

func (s *sampler) tick() {
	rss := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rssPeak = max(s.rssPeak, rss)
	s.goroutines = max(s.goroutines, runtime.NumGoroutine())
	if s.svc != nil {
		for _, sh := range s.svc.Stats().Shards {
			s.frozenGens = max(s.frozenGens, sh.FrozenGens)
			s.deltaLen = max(s.deltaLen, sh.DeltaLen)
		}
	}
}

// stop ends the polling goroutine and takes a last sample; further calls do
// nothing, so a run can stop it where its measurements end and still defer it.
func (s *sampler) stop() {
	s.once.Do(func() {
		close(s.quit)
		<-s.done
		s.tick()
	})
}

// residentBytes is VmRSS: the second field of /proc/self/statm, in pages.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
