package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming summary statistics using Welford's
// algorithm, which is numerically stable for long runs. The zero value is
// ready to use.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Merge folds another accumulator into a (parallel reduction). The result is
// identical (up to rounding) to having Added all observations into one
// accumulator.
func (a *Accumulator) Merge(b Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	n1, n2 := float64(a.n), float64(b.n)
	delta := b.mean - a.mean
	total := n1 + n2
	a.m2 += b.m2 + delta*delta*n1*n2/total
	a.mean += delta * n2 / total
	a.n += b.n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// Summary is a frozen snapshot of an Accumulator.
type Summary struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
}

// Summarize freezes the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{N: a.n, Mean: a.Mean(), StdDev: a.StdDev(), Min: a.min, Max: a.max}
}

// String renders "mean ± stddev (n=..)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d, min=%.4f, max=%.4f)", s.Mean, s.StdDev, s.N, s.Min, s.Max)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or p out
// of range. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the unbiased sample standard deviation of xs (0 for < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
