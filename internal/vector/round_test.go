package vector

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// roundOracle is Round as it stood before it became one pass, kept as the
// differential oracle: the carry pass writes every digit into a scratch
// array, a second scan finds the highest non-zero digit, a third folds the
// digits below the four-digit window into sticky, and every result goes
// through Ldexp.
func roundOracle(a *Acc) float64 {
	if !a.used {
		return 0
	}
	var digits [numAccLimbs + 3]uint32
	n, carry := propagateOracle(a, &digits, 1)
	neg := false
	if carry < 0 {
		neg = true
		n, carry = propagateOracle(a, &digits, -1)
	}
	for carry > 0 {
		digits[n] = uint32(carry & 0xFFFFFFFF)
		n++
		carry >>= 32
	}
	h := n - 1
	for h >= 0 && digits[h] == 0 {
		h--
	}
	if h < 0 {
		return 0
	}
	dig := func(j int) uint64 {
		if j < 0 {
			return 0
		}
		return uint64(digits[j])
	}
	hi := dig(h)<<32 | dig(h-1)
	lo := dig(h-2)<<32 | dig(h-3)
	sticky := false
	for j := 0; j <= h-4; j++ {
		if digits[j] != 0 {
			sticky = true
			break
		}
	}
	length := 64 + bits.Len64(hi)
	shift := length - 53
	var mant uint64
	var roundBit, restNonzero bool
	if shift > 64 {
		mant = hi >> (shift - 64)
		rb := shift - 1 - 64
		roundBit = (hi>>rb)&1 == 1
		restNonzero = hi&(1<<rb-1) != 0 || lo != 0
	} else {
		mant = hi<<(64-shift) | lo>>shift
		rb := shift - 1
		roundBit = (lo>>rb)&1 == 1
		restNonzero = lo&(1<<rb-1) != 0
	}
	if roundBit && (restNonzero || sticky || mant&1 == 1) {
		mant++
	}
	v := math.Ldexp(float64(mant), 32*(int(a.lo)+h-3)-1074+shift)
	if neg {
		v = -v
	}
	return v
}

func propagateOracle(a *Acc, digits *[numAccLimbs + 3]uint32, sign int64) (n int, carry int64) {
	for i := a.lo; i <= a.hi; i++ {
		t := sign*a.limb[i] + carry
		d := t & 0xFFFFFFFF
		carry = (t - d) >> 32
		digits[n] = uint32(d)
		n++
	}
	return n, carry
}

// randomSummand draws a value from one of several regimes: bin-load sizes in
// [0, 1), subnormals, normals of any binade up to 2^1000, the largest
// finite values (so sums overflow), and values a few ulps apart (so sums
// cancel to a few low digits). Any of them may be negative.
func randomSummand(r *rand.Rand) float64 {
	var x float64
	switch r.Intn(6) {
	case 0:
		x = r.Float64()
	case 1:
		x = math.Float64frombits(uint64(r.Int63n(1 << 52))) // subnormal
	case 2:
		x = math.Ldexp(1+r.Float64(), r.Intn(2023)-1022) // up to 2^1000
	case 3:
		x = math.MaxFloat64 * (0.5 + r.Float64()/2)
	case 4:
		x = math.Nextafter(1, math.Inf(1+r.Intn(2)*-2)) // 1 ± one ulp
	default:
		x = float64(r.Intn(11)) / 10
	}
	if r.Intn(3) == 0 {
		x = -x
	}
	return x
}

// TestRoundMatchesOracle holds Round to roundOracle bit for bit over random
// multisets: negative sums, subnormals, values up to 2^1000 and past the
// largest finite sum, exact cancellation to zero, and limb windows that Sub
// left wide: values at both ends of the range are added and then removed
// again, so the carry pass walks many zero digits around the few that
// remain.
func TestRoundMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	check := func(what string, a *Acc) {
		t.Helper()
		got, want := a.Round(), roundOracle(a)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Round = %v (%#x), the oracle gives %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for n := 0; n < 30_000; n++ {
		var a Acc
		kept := make([]float64, 1+r.Intn(8))
		for i := range kept {
			kept[i] = randomSummand(r)
			a.Add(kept[i])
		}
		check("sum", &a)
		// Widen the window: add values at the ends of the range, some of
		// them and some of the kept ones cancelling exactly.
		wide := []float64{math.Ldexp(1, 1000), math.SmallestNonzeroFloat64, -math.Ldexp(1, -1000), math.MaxFloat64}
		for _, x := range wide[:1+r.Intn(len(wide))] {
			a.Add(x)
			check("widened", &a)
			a.Sub(x)
			check("widened then narrowed", &a)
		}
		for _, x := range kept[:r.Intn(len(kept)+1)] {
			a.Sub(x)
			check("partly removed", &a)
		}
	}
}

// BenchmarkAccRoundOracle times the oracle on BenchmarkAccRound's
// accumulator, so the two benchmarks compare the one-pass Round with the
// scratch-array version it replaced.
func BenchmarkAccRoundOracle(b *testing.B) {
	var a Acc
	for i := 0; i < 64; i++ {
		a.Add(float64(i+1) / 100)
	}
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s = roundOracle(&a)
	}
	_ = s
}
