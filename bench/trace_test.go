package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"tiled", []span{{start: 100, end: 130}, {start: 130, end: 200}}, 0},
		{"gap", []span{{start: 100, end: 130}, {start: 150, end: 200}}, 20},
		{"overlap counted once", []span{{start: 100, end: 160}, {start: 140, end: 180}}, 20},
		{"clipped to the parent", []span{{start: 50, end: 120}, {start: 190, end: 400}}, 70},
		{"nested", []span{{start: 110, end: 190}, {start: 120, end: 130}}, 20},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A request's child spans tile it exactly, in both phases.
func TestSpansTileTheRequest(t *testing.T) {
	closed := traceRec{req: 1, stamps: stamps{intended: -1, genStart: 10, subStart: 14, subEnd: 40, done: 900, verEnd: 905}}
	paced := closed
	paced.intended = 3
	for _, r := range []traceRec{closed, paced} {
		s := spansOf(7, 0, "p", r)
		if s[0].stage != "request" || s[0].id != 7 {
			t.Fatalf("first span is %+v", s[0])
		}
		var sum time.Duration
		for _, c := range s[1:] {
			if c.parent != 7 {
				t.Fatalf("%s is not a child of the request", c.stage)
			}
			sum += c.end - c.start
		}
		if total := s[0].end - s[0].start; sum != total || selfTime(s[0], s[1:]) != 0 {
			t.Fatalf("children cover %d of a %d request (intended %d)", sum, total, r.intended)
		}
	}
	if got := coverage([]clientTrace{{recs: []traceRec{closed, paced}}}); got != 1 {
		t.Fatalf("coverage %v, want 1", got)
	}
}
