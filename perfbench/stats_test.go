package main

import "testing"

// TestPercentileNeedsTenBeyond: a percentile is reported only when at least
// ten samples lie beyond it, so p99 needs 1000 samples and p50 needs 20.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// TestSelfTimeCountsOverlapOnce: overlapping children are merged, and the
// parts outside the parent are clipped.
func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{Start: 10, End: 110}
	children := []span{{Start: 20, End: 40}, {Start: 30, End: 50}, {Start: 100, End: 130}, {Start: 0, End: 5}}
	if got := selfTime(parent, children); got != 60 {
		t.Fatalf("selfTime = %v, want 60", got)
	}
}
