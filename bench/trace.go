package main

import (
	"bufio"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// This file turns the stamps recorded in the traced phases into spans. One
// request span per request, with child spans around the calls into the
// program: sched_lag (scheduled → actual send, paced only), generate, submit
// (GoBatch / JoinBatch / the transaction's Go, Insert and Delete calls), wait
// (until this client observed the completion) and verify. Spans are kept in
// memory and written when the workload ends. Spans inside serve, wire and
// client are a later issue.

// span is one line of trace-<workload>.jsonl. Times are nanoseconds from the
// run's start; intended is -1 outside the paced phase.
type span struct {
	id, parent uint64
	req        uint64
	client     int
	phase      string
	stage      string
	start, end time.Duration
	intended   time.Duration
}

// clientTrace is the stamps one client recorded in one traced phase.
type clientTrace struct {
	client int
	phase  string
	recs   []traceRec
}

// spansOf expands one request's stamps into its request span and children.
// Ids are dense: the request takes base, its children the ids after it.
func spansOf(base uint64, client int, phase string, r traceRec) []span {
	start := r.genStart
	if r.intended >= 0 {
		start = r.intended
	}
	mk := func(i uint64, parent uint64, stage string, a, b time.Duration) span {
		return span{id: base + i, parent: parent, req: r.req, client: client, phase: phase,
			stage: stage, start: a, end: b, intended: r.intended}
	}
	out := []span{mk(0, 0, "request", start, r.verEnd)}
	if r.intended >= 0 {
		out = append(out, mk(1, base, "sched_lag", r.intended, r.genStart))
	}
	return append(out,
		mk(2, base, "generate", r.genStart, r.subStart),
		mk(3, base, "submit", r.subStart, r.subEnd),
		mk(4, base, "wait", r.subEnd, r.done),
		mk(5, base, "verify", r.done, r.verEnd),
	)
}

const idsPerRequest = 6

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]time.Duration) int { return int(x[0] - y[0]) })
	covered, edge := time.Duration(0), parent.start
	for _, x := range iv {
		if x[1] > edge {
			covered += x[1] - max(x[0], edge)
			edge = x[1]
		}
	}
	return parent.end - parent.start - covered
}

// coverage is the share of all request time the children's self times
// account for; the steps tile a request, so anything below 1 is a recorder
// fault.
func coverage(traces []clientTrace) float64 {
	var total, self time.Duration
	for _, ct := range traces {
		for _, r := range ct.recs {
			s := spansOf(1, ct.client, ct.phase, r)
			total += s[0].end - s[0].start
			self += selfTime(s[0], s[1:])
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(self)/float64(total)
}

// writeTrace writes every span as one JSON object per line and returns how
// many it wrote.
func writeTrace(dir, workload string, traces []clientTrace) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n, next := 0, uint64(1)
	var b []byte
	for _, ct := range traces {
		for _, r := range ct.recs {
			for _, s := range spansOf(next, ct.client, ct.phase, r) {
				b = appendSpan(b[:0], workload, s)
				w.Write(b) // a failed write surfaces at Flush
				n++
			}
			next += idsPerRequest
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

func appendSpan(b []byte, workload string, s span) []byte {
	num := func(key string, v int64) {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, v, 10)
	}
	str := func(key, v string) {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		b = strconv.AppendQuote(b, v)
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, s.id, 10)
	num("parent", int64(s.parent))
	num("req", int64(s.req))
	num("client", int64(s.client))
	str("workload", workload)
	str("phase", s.phase)
	str("stage", s.stage)
	num("start_ns", int64(s.start))
	num("end_ns", int64(s.end))
	num("intended_ns", int64(s.intended))
	return append(b, '}', '\n')
}
