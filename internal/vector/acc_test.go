package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
			t.Fatalf("iter %d: Acc(%v).Round() = %v (%#x), want %v (%#x)",
				iter, vals, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestAccOrderIndependence is the determinism contract: the same multiset of
// values produces the same accumulator (the same wire bytes, the same Round)
// regardless of insertion order, and regardless of how many other
// values were added and exactly removed along the way, some of them below the
// two-word frame's unit, so one history spills and the other does not.
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
			if i%5 == 4 {
				noise *= 0x1p-90
			}
			shuffled.Add(noise)
			shuffled.Add(v)
			shuffled.Sub(noise)
		}

		return string(forward.AppendBinary(nil)) == string(shuffled.AppendBinary(nil)) &&
			math.Float64bits(forward.Round()) == math.Float64bits(shuffled.Round())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAccSubRestoresExactState: adding and removing a value leaves the
// accumulator holding what it held before, whether the value fits the
// two-word frame or spills it.
func TestAccSubRestoresExactState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a Acc
	base := []float64{0.25, 0.1, 1e-9, 0.7777}
	for _, v := range base {
		a.Add(v)
	}
	want := a.AppendBinary(nil)
	for iter := 0; iter < 1000; iter++ {
		v := math.Ldexp(rng.Float64(), rng.Intn(160)-100)
		a.Add(v)
		a.Sub(v)
	}
	if !a.spilled {
		t.Fatal("the test needs values that spill the accumulator")
	}
	if got := a.AppendBinary(nil); string(got) != string(want) || string(got) != string(accOf(base).AppendBinary(nil)) {
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
	if string(a.AppendBinary(nil)) != "\x00" {
		t.Error("0.25 + 0.5 - 0.75 should be exactly zero")
	}
	if got := a.Round(); got != 0 {
		t.Errorf("Round of exact zero = %v, want 0", got)
	}
	a.Add(0)
	a.Sub(0)
	if string(a.AppendBinary(nil)) != "\x00" {
		t.Error("adding zero changed the state")
	}
	// 2^13 + 2^13 − 2^14 is zero, but spilled limbs hold it as 2^32 in one
	// limb and −1 in the next: only a carry shows the sum is zero.
	for _, spill := range []float64{0, 1e-40} {
		var c Acc
		c.Add(spill)
		c.Sub(spill)
		c.Add(0x1p13)
		c.Add(0x1p13)
		c.Sub(0x1p14)
		if got := c.AppendBinary(nil); string(got) != "\x00" {
			t.Errorf("2^13 + 2^13 − 2^14 (spilled %v): payload % x, want the zero payload", c.spilled, got)
		}
	}
}

// TestAccReset: Reset yields an accumulator that behaves as a new one,
// from the frame and from spilled limbs alike.
func TestAccReset(t *testing.T) {
	var fresh, half Acc
	half.Add(0.5)
	for _, vals := range [][]float64{{0.25, 0.5}, {1e300, 1e-300}} {
		var a Acc
		for _, v := range vals {
			a.Add(v)
		}
		a.Reset()
		if a.Round() != 0 || string(a.AppendBinary(nil)) != string(fresh.AppendBinary(nil)) {
			t.Errorf("after %v and Reset: Round = %v, payload % x, not the zero value", vals, a.Round(), a.AppendBinary(nil))
		}
		a.Add(0.5)
		if got := a.Round(); got != 0.5 || string(a.AppendBinary(nil)) != string(half.AppendBinary(nil)) {
			t.Errorf("after %v, Reset and 0.5: Round = %v, want 0.5", vals, got)
		}
		if a.spilled {
			t.Errorf("after %v, Reset and 0.5: the accumulator spilled", vals)
		}
	}
}

func TestAccPanicsOnNonFinite(t *testing.T) {
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, spilled := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Add(%v) did not panic (spilled %v)", x, spilled)
					}
				}()
				var a Acc
				if spilled {
					a.Add(math.SmallestNonzeroFloat64)
				}
				a.Add(x)
			}()
		}
	}
}

func TestAccNoAllocs(t *testing.T) {
	var a, w Acc
	w.Add(math.SmallestNonzeroFloat64) // spilled: its limbs are allocated here
	allocs := testing.AllocsPerRun(100, func() {
		a.Add(0.3)
		_ = a.Round()
		a.Sub(0.3)
		w.Add(0.3)
		_ = w.Round()
		w.Sub(0.3)
	})
	if allocs != 0 {
		t.Errorf("Add/Round/Sub allocated %v times per run, want 0", allocs)
	}
	w.Reset()
	if allocs := testing.AllocsPerRun(100, func() {
		w.Add(1e-40)
		w.Reset()
	}); allocs != 0 {
		t.Errorf("a spill after Reset allocated %v times per run; the limbs are kept", allocs)
	}
}

// TestAccAppendBinaryNoAllocs: AppendBinary writes straight from the
// accumulator into dst, in the frame and from spilled limbs alike.
func TestAccAppendBinaryNoAllocs(t *testing.T) {
	var a, w Acc
	w.Add(1e-40)
	for i := 0; i < 64; i++ {
		a.Add(float64(i+1) / 100)
		w.Add(float64(i+1) / 100)
	}
	dst := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		dst = a.AppendBinary(dst[:0])
		dst = w.AppendBinary(dst[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendBinary allocated %v times per run, want 0", allocs)
	}
}

// The benchmarks below keep their values in the two-word frame; the Wide
// ones time the same work on an accumulator whose sum a tiny value, 1e-40,
// spilled into limbs.

func BenchmarkAccAddSub(b *testing.B) {
	var a Acc
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(0.34375)
		a.Sub(0.34375)
	}
}

func BenchmarkAccAddSubWide(b *testing.B) {
	var a Acc
	a.Add(1e-40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(0.34375)
		a.Sub(0.34375)
	}
}

func BenchmarkAccRound(b *testing.B) {
	benchmarkRound(b, 0)
}

func BenchmarkAccRoundWide(b *testing.B) {
	benchmarkRound(b, 1e-40)
}

func benchmarkRound(b *testing.B, extra float64) {
	var a Acc
	a.Add(extra)
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
