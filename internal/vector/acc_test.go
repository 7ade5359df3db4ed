package vector

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// exactSum computes the correctly-rounded float64 sum of values using
// math/big exact rational arithmetic — the oracle for Acc.Round.
func exactSum(values []float64) float64 {
	sum := new(big.Float).SetPrec(4096)
	t := new(big.Float).SetPrec(4096)
	for _, v := range values {
		sum.Add(sum, t.SetFloat64(v))
	}
	f, _ := sum.Float64()
	return f
}

func accOf(values []float64) *Acc {
	var a Acc
	for _, v := range values {
		a.Add(v)
	}
	return &a
}

func TestAccMatchesBigFloat(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{1},
		{-1},
		{0.1, 0.2, 0.3},
		{1e300, 1, -1e300},
		{1e300, -1e300, 1e-300},
		{1, 1e-30, -1},
		{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64},
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64},
		{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64},
		{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
		{1.5, 2.5, -4.0},
		{math.Pi, math.E, -math.Sqrt2, math.Ln2},
		{math.Ldexp(1, -1074), math.Ldexp(1, -1074), math.Ldexp(1, -1074)},
		{math.Ldexp(1, 1023), math.Ldexp(1, -1074)},
		{math.Ldexp(1, 52), 0.5},      // round-to-even boundary
		{math.Ldexp(1, 52), 0.5, 1},   // tie broken by extra term
		{math.Ldexp(1, 53), 1},        // below-ulp addend
		{math.Ldexp(1, 53), 1, 1e-60}, // sticky forces round up
	}
	for _, vals := range cases {
		got := accOf(vals).Round()
		want := exactSum(vals)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Acc(%v).Round() = %v (%#x), want %v (%#x)",
				vals, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestAccMatchesBigFloatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0: // bin-load-like sizes in (0, 1]
				vals[i] = float64(1+rng.Intn(1000)) / 1000
			case 1: // wide magnitude range
				vals[i] = math.Ldexp(rng.Float64(), rng.Intn(120)-60)
			case 2: // signed, cancellation-heavy
				vals[i] = (rng.Float64() - 0.5) * 2
			default: // raw random bit patterns (finite only)
				for {
					v := math.Float64frombits(rng.Uint64())
					if !math.IsInf(v, 0) && !math.IsNaN(v) {
						vals[i] = v
						break
					}
				}
			}
		}
		got := accOf(vals).Round()
		want := exactSum(vals)
		if math.Float64bits(got) != math.Float64bits(want) {
			// Subnormal results may legitimately double-round by one ulp;
			// anything else is a bug.
			if want != 0 && math.Abs(want) < math.Ldexp(1, -1022) &&
				math.Abs(got-want) <= math.Ldexp(1, -1074) {
				continue
			}
			t.Fatalf("iter %d: Acc(%v).Round() = %v (%#x), want %v (%#x)",
				iter, vals, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestAccOrderIndependence is the determinism contract: the same multiset of
// values produces a bit-identical accumulator state (and hence Round result)
// regardless of insertion order, and regardless of how many other values were
// added and exactly removed along the way.
func TestAccOrderIndependence(t *testing.T) {
	f := func(raw []uint16, permSeed int64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			// Sizes in (0, 1] with varied mantissas, like real demands.
			vals[i] = float64(r+1) / 65536
		}

		forward := accOf(vals)

		perm := append([]float64(nil), vals...)
		rng := rand.New(rand.NewSource(permSeed))
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var shuffled Acc
		// Interleave transient add/remove pairs with the permuted inserts:
		// a different history reaching the same active multiset.
		for i, v := range perm {
			noise := float64(i+1) / 7
			shuffled.Add(noise)
			shuffled.Add(v)
			shuffled.Sub(noise)
		}

		// The limb vector is the canonical state; the lo/hi window is just a
		// conservative bound on touched limbs and may differ across histories.
		return forward.limb == shuffled.limb &&
			math.Float64bits(forward.Round()) == math.Float64bits(shuffled.Round())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAccSubRestoresExactState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a Acc
	base := []float64{0.25, 0.1, 1e-9, 0.7777}
	for _, v := range base {
		a.Add(v)
	}
	snapshot := a.limb
	for iter := 0; iter < 1000; iter++ {
		v := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		a.Add(v)
		a.Sub(v)
	}
	if a.limb != snapshot {
		t.Fatal("add/remove pairs perturbed the accumulator state")
	}
}

func TestAccNegativeAndZero(t *testing.T) {
	var a Acc
	a.Add(0.3)
	a.Sub(0.7)
	if got, want := a.Round(), exactSum([]float64{0.3, -0.7}); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("negative total: got %v, want %v", got, want)
	}
	// Exact cancellation needs values whose real sum is zero; dyadic
	// fractions qualify (0.3-0.7+0.4 does NOT: the float constants are not
	// the decimals they print as, and the exact residue is 2^-54).
	a.Reset()
	a.Add(0.25)
	a.Add(0.5)
	a.Sub(0.75)
	if !a.IsZero() {
		t.Error("0.25 + 0.5 - 0.75 should be exactly zero")
	}
	if got := a.Round(); got != 0 {
		t.Errorf("Round of exact zero = %v, want 0", got)
	}
	a.Add(0)
	a.Sub(0)
	if !a.IsZero() {
		t.Error("adding zero changed the state")
	}
}

// TestAccEqualIgnoresWindow: a value that was added and removed again
// widens the limb window and leaves zero limbs at its edge, so the two
// accumulators below serialise differently, yet they hold the same multiset
// and must compare equal; a different multiset must not.
func TestAccEqualIgnoresWindow(t *testing.T) {
	var wide, fresh, other, empty Acc
	wide.Add(0.5)
	wide.Add(1e-12)
	wide.Sub(1e-12)
	fresh.Add(0.5)
	other.Add(0.5)
	other.Add(1e-12)
	if string(wide.AppendBinary(nil)) == string(fresh.AppendBinary(nil)) {
		t.Fatal("the test needs accumulators whose windows differ")
	}
	for _, c := range []struct {
		a, b *Acc
		want bool
	}{
		{&wide, &fresh, true},
		{&fresh, &wide, true},
		{&wide, &other, false},
		{&other, &fresh, false},
		{&empty, &empty, true},
		{&empty, &fresh, false},
		{&fresh, &empty, false},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a.Round(), c.b.Round(), got, c.want)
		}
	}
	var cancelled Acc
	cancelled.Add(0.25)
	cancelled.Sub(0.25)
	if !cancelled.Equal(&empty) || !empty.Equal(&cancelled) {
		t.Error("an accumulator whose values all cancelled should equal the zero value")
	}
}

func TestAccReset(t *testing.T) {
	var a Acc
	a.Add(1e300)
	a.Add(1e-300)
	a.Reset()
	var fresh Acc
	if a != fresh {
		t.Error("Reset did not restore the zero state")
	}
	a.Add(0.5)
	if got := a.Round(); got != 0.5 {
		t.Errorf("after Reset: Round = %v, want 0.5", got)
	}
}

func TestAccPanicsOnNonFinite(t *testing.T) {
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", x)
				}
			}()
			var a Acc
			a.Add(x)
		}()
	}
}

func TestAccNoAllocs(t *testing.T) {
	var a Acc
	allocs := testing.AllocsPerRun(100, func() {
		a.Add(0.3)
		_ = a.Round()
		a.Sub(0.3)
	})
	if allocs != 0 {
		t.Errorf("Add/Round/Sub allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkAccAddSub(b *testing.B) {
	var a Acc
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(0.34375)
		a.Sub(0.34375)
	}
}

func BenchmarkAccRound(b *testing.B) {
	var a Acc
	for i := 0; i < 64; i++ {
		a.Add(float64(i+1) / 100)
	}
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s = a.Round()
	}
	_ = s
}
