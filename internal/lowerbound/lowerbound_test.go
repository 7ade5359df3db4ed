package lowerbound

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

func v(xs ...float64) vector.Vector { return vector.Of(xs...) }

func TestIntegralBoundSingleItem(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 5, v(0.3))
	// One item active on [0,5): ⌈0.3⌉=1 bin the whole time.
	if got := IntegralBound(l); math.Abs(got-5) > 1e-9 {
		t.Errorf("IntegralBound = %v, want 5", got)
	}
}

func TestIntegralBoundStacksLoad(t *testing.T) {
	l := item.NewList(1)
	// Three items of size 0.8 active together on [0,1): need ⌈2.4⌉=3 bins.
	for i := 0; i < 3; i++ {
		l.Add(0, 1, v(0.8))
	}
	if got := IntegralBound(l); math.Abs(got-3) > 1e-9 {
		t.Errorf("IntegralBound = %v, want 3", got)
	}
}

func TestIntegralBoundPiecewise(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 2, v(0.8)) // [0,2): alone -> 1 bin
	l.Add(1, 3, v(0.8)) // [1,2): 1.6 -> 2 bins; [2,3): alone -> 1 bin
	// Segments: [0,1): 1, [1,2): 2, [2,3): 1 => total 4.
	if got := IntegralBound(l); math.Abs(got-4) > 1e-9 {
		t.Errorf("IntegralBound = %v, want 4", got)
	}
}

func TestIntegralBoundGap(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 1, v(0.5))
	l.Add(3, 4, v(0.5))
	// Idle [1,3) contributes nothing.
	if got := IntegralBound(l); math.Abs(got-2) > 1e-9 {
		t.Errorf("IntegralBound = %v, want 2", got)
	}
}

func TestIntegralBoundMultiDimUsesMaxDimension(t *testing.T) {
	l := item.NewList(2)
	// Dimension 1 carries the load: two items with 0.9 in dim 1.
	l.Add(0, 1, v(0.1, 0.9))
	l.Add(0, 1, v(0.1, 0.9))
	// ‖(0.2, 1.8)‖∞ = 1.8 -> 2 bins for [0,1).
	if got := IntegralBound(l); math.Abs(got-2) > 1e-9 {
		t.Errorf("IntegralBound = %v, want 2", got)
	}
}

func TestIntegralBoundDeparturesBeforeArrivals(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 1, v(0.9))
	l.Add(1, 2, v(0.9)) // arrives exactly when first departs
	// Load never exceeds 0.9: 1 bin on [0,2).
	if got := IntegralBound(l); math.Abs(got-2) > 1e-9 {
		t.Errorf("IntegralBound = %v, want 2", got)
	}
}

func TestIntegralBoundCeilingRounding(t *testing.T) {
	l := item.NewList(1)
	// Ten items of 0.2: float sum may be 2.0000000000000004; must need 2, not 3.
	for i := 0; i < 10; i++ {
		l.Add(0, 1, v(0.2))
	}
	if got := IntegralBound(l); math.Abs(got-2) > 1e-9 {
		t.Errorf("IntegralBound = %v, want 2", got)
	}
}

func TestUtilizationBound(t *testing.T) {
	l := item.NewList(2)
	l.Add(0, 2, v(0.5, 0.25)) // ‖·‖∞=0.5, ℓ=2 -> 1.0
	l.Add(0, 4, v(0.1, 0.3))  // 0.3·4 = 1.2
	want := (1.0 + 1.2) / 2
	if got := UtilizationBound(l); math.Abs(got-want) > 1e-12 {
		t.Errorf("UtilizationBound = %v, want %v", got, want)
	}
}

func TestBoundsBestPicksLargest(t *testing.T) {
	b := Bounds{Integral: 3, Utilization: 5, Span: 1}
	if b.Best() != 5 {
		t.Errorf("Best = %v, want 5", b.Best())
	}
}

func TestBinDemandAt(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 2, v(0.8))
	l.Add(1, 3, v(0.8))
	cases := []struct {
		t    float64
		want int
	}{
		{-1, 0}, {0, 1}, {0.5, 1}, {1, 2}, {1.5, 2}, {2, 1}, {2.5, 1}, {3, 0},
	}
	for _, c := range cases {
		if got := BinDemandAt(l, c.t); got != c.want {
			t.Errorf("BinDemandAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func randomList(seed int64, n, d int, maxDur float64) *item.List {
	r := rand.New(rand.NewSource(seed))
	l := item.NewList(d)
	for i := 0; i < n; i++ {
		a := math.Floor(r.Float64() * 100)
		dur := 1 + math.Floor(r.Float64()*maxDur)
		size := vector.New(d)
		for j := range size {
			size[j] = (1 + math.Floor(r.Float64()*100)) / 100
		}
		l.Add(a, a+dur, size)
	}
	return l
}

// Property (Lemma 1): Integral dominates Utilization and Span.
func TestIntegralIsTightest(t *testing.T) {
	f := func(seedRaw uint16, dRaw, nRaw uint8) bool {
		d := int(dRaw%4) + 1
		n := int(nRaw%50) + 1
		l := randomList(int64(seedRaw), n, d, 20)
		b := Compute(l)
		const slack = 1e-9
		return b.Integral >= b.Utilization-slack && b.Integral >= b.Span-slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every Any Fit algorithm's cost is >= every lower bound
// (cost ≥ OPT ≥ LB).
func TestAlgorithmCostDominatesBounds(t *testing.T) {
	f := func(seedRaw uint16, dRaw uint8) bool {
		d := int(dRaw%3) + 1
		l := randomList(int64(seedRaw), 80, d, 15)
		b := Compute(l)
		for _, p := range core.StandardPolicies(int64(seedRaw)) {
			res, err := core.Simulate(l, p)
			if err != nil {
				return false
			}
			if res.Cost < b.Best()-1e-6 {
				t.Logf("%s: cost %v < LB %v (seed %d)", p.Name(), res.Cost, b.Best(), seedRaw)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: IntegralBound equals a brute-force Riemann-style evaluation on
// integral-grid instances at d = 1, 2 and 5. Twenty-five items on 30
// instants put several departures at one instant, and arrivals at the
// instant of departures, on most instances; the test counts both and fails
// if either is missing.
func TestIntegralBoundAgainstBruteForce(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		var jointDepartures, meetings int
		f := func(seedRaw uint16) bool {
			r := rand.New(rand.NewSource(int64(seedRaw)))
			l := item.NewList(d)
			horizon := 30
			arrivals, departures := make([]int, horizon+5), make([]int, horizon+5)
			for i := 0; i < 25; i++ {
				a := r.Intn(horizon - 1)
				dur := 1 + r.Intn(5)
				size := vector.New(d)
				for j := range size {
					size[j] = float64(1+r.Intn(10)) / 10
				}
				l.Add(float64(a), float64(a+dur), size)
				arrivals[a]++
				departures[a+dur]++
			}
			for tt := range departures {
				if departures[tt] > 1 {
					jointDepartures++
				}
				if departures[tt] > 0 && arrivals[tt] > 0 {
					meetings++
				}
			}
			// All breakpoints are integers, so evaluating at t+0.5 per unit
			// cell is exact.
			brute := 0.0
			for tt := 0; tt < horizon+10; tt++ {
				brute += float64(BinDemandAt(l, float64(tt)+0.5))
			}
			return math.Abs(brute-IntegralBound(l)) < 1e-6
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("d=%d: %v", d, err)
		}
		if jointDepartures == 0 || meetings == 0 {
			t.Errorf("d=%d: %d instants with joint departures and %d where arrivals meet departures, want both", d, jointDepartures, meetings)
		}
	}
}

// TestIntegralBoundOfInstanceOrders: on Figure 4 instances, the bound swept
// over a core.Instance's orders, as the experiments compute it, equals
// IntegralBound bit for bit.
func TestIntegralBoundOfInstanceOrders(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		for _, mu := range []int{1, 10, 200} {
			for seed := int64(1); seed <= 3; seed++ {
				l, err := workload.Uniform(workload.PaperDefaults(d, mu), seed)
				if err != nil {
					t.Fatal(err)
				}
				in, err := core.NewInstance(l)
				if err != nil {
					t.Fatal(err)
				}
				arrivals, departures := in.Orders()
				got, want := IntegralBoundOf(l, arrivals, departures), IntegralBound(l)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("d=%d μ=%d seed %d: IntegralBoundOf over the Instance's orders = %v, IntegralBound = %v", d, mu, seed, got, want)
				}
			}
		}
	}
}

func BenchmarkIntegralBound(b *testing.B) {
	l := randomList(1, 1000, 2, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = IntegralBound(l)
	}
}
