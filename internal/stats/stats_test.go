package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.StdDev() != 0 || a.N() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 || a.Min() != 3 || a.Max() != 3 {
		t.Error("single-observation stats wrong")
	}
}

// Property: Merge(a, b) == accumulate everything sequentially.
func TestMergeEquivalentToSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(n1Raw, n2Raw uint8) bool {
		n1, n2 := int(n1Raw%50), int(n2Raw%50)
		var a, b, all Accumulator
		for i := 0; i < n1; i++ {
			x := r.NormFloat64()*10 + 5
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := r.NormFloat64()*2 - 3
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		return math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-6 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeEmptyCases(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Merge(b) // merge empty: no-op
	if a.N() != 1 || a.Mean() != 1 {
		t.Error("merge with empty changed state")
	}
	var c Accumulator
	c.Merge(a) // empty merges a: adopt
	if c.N() != 1 || c.Mean() != 1 {
		t.Error("empty.Merge(a) should adopt a")
	}
}

func TestSummarize(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(3)
	s := a.Summarize()
	if s.N != 2 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation: median of even-length slice.
	if got := Percentile([]float64{1, 2, 3, 4}, 50); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single = %v", got)
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated input")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}

func TestMeanStdDevHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev single != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if math.Abs(Mean(xs)-5) > 1e-12 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if math.Abs(StdDev(xs)-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
}

// Property: accumulator agrees with the slice helpers.
func TestAccumulatorMatchesSliceHelpers(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(nRaw uint8) bool {
		n := int(nRaw%40) + 2
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = r.Float64() * 100
			a.Add(xs[i])
		}
		return math.Abs(a.Mean()-Mean(xs)) < 1e-9 && math.Abs(a.StdDev()-StdDev(xs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(float64(i % 1000))
	}
}
