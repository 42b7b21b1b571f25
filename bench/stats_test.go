package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100 … 1
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianOfSegments(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{9, 1, 1000}, 9}, // one stalled segment does not move the result
		{[]float64{4, 2}, 3},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSegmentSplitsByCompletionTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	r := &loadResult{
		bounds:    []time.Duration{ms(100), ms(200), ms(300)},
		serverCPU: []float64{1, 1.5, 2.5},
		benchCPU:  []float64{0, 0.1, 0.2},
		samples: []sample{
			{kind: opUpdate, ok: true, done: ms(50), lat: ms(1), changes: 4}, // warm-up
			{kind: opUpdate, ok: true, done: ms(150), lat: ms(2), server: ms(1), changes: 4},
			{kind: opUpdate, ok: false, done: ms(160), lat: ms(9), changes: 4}, // failed
			{kind: opRead, ok: true, done: ms(250), lat: ms(3), late: ms(1)},
			{kind: opFeatures, ok: true, done: ms(299), lat: ms(5)},
			{kind: opUpdate, ok: true, done: ms(300), lat: ms(7), changes: 4}, // past the end
		},
	}
	s0, s1, all := r.segment(0), r.segment(1), r.segment(-1)
	if len(s0.ackMS) != 1 || s0.ackMS[0] != 2 || s0.changes != 4 || s0.overheadUS[0] != 1000 {
		t.Errorf("segment 0 = %+v", s0)
	}
	if len(s1.ackMS) != 0 || len(s1.readMS) != 1 || s1.lateUS[0] != 1000 || len(s1.featMS) != 1 {
		t.Errorf("segment 1 = %+v", s1)
	}
	if s1.serverCPU != 1 || s0.seconds != 0.1 {
		t.Errorf("segment 1 CPU %v, segment 0 seconds %v", s1.serverCPU, s0.seconds)
	}
	if all.changes != 4 || len(all.readMS) != 1 || all.serverCPU != 1.5 {
		t.Errorf("all segments = %+v", all)
	}
	if a, f := r.counts(); a != 6 || f != 1 {
		t.Errorf("counts = %d attempted, %d failed, want 6 and 1", a, f)
	}
}
