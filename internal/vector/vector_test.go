package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	v := New(3)
	if v.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", v.Dim())
	}
	if !v.IsZero() {
		t.Fatalf("New(3) = %v, want zero vector", v)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestUniformUnitOf(t *testing.T) {
	u := Uniform(3, 0.5)
	for i, x := range u {
		if x != 0.5 {
			t.Errorf("Uniform[%d] = %v, want 0.5", i, x)
		}
	}
	e := Unit(4, 2, 0.7)
	want := Of(0, 0, 0.7, 0)
	if !e.Equal(want, 0) {
		t.Errorf("Unit = %v, want %v", e, want)
	}
	o := Of(1, 2, 3)
	if o.Dim() != 3 || o[1] != 2 {
		t.Errorf("Of = %v", o)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	v := Of(1, 2)
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone shares storage: v = %v", v)
	}
}

func TestAddSub(t *testing.T) {
	v := Of(0.25, 0.5)
	u := Of(0.5, 0.25)
	sum := v.Add(u)
	if !sum.Equal(Of(0.75, 0.75), 1e-15) {
		t.Errorf("Add = %v", sum)
	}
	diff := sum.Sub(u)
	if !diff.Equal(v, 1e-15) {
		t.Errorf("Sub = %v, want %v", diff, v)
	}
	// Originals untouched.
	if !v.Equal(Of(0.25, 0.5), 0) {
		t.Errorf("Add mutated receiver: %v", v)
	}
}

func TestSubClampsAtZero(t *testing.T) {
	v := Of(0.1)
	u := Of(0.2)
	got := v.Sub(u)
	if got[0] != 0 {
		t.Errorf("Sub clamp: got %v, want 0", got[0])
	}
	v.SubInPlace(u)
	if v[0] != 0 {
		t.Errorf("SubInPlace clamp: got %v, want 0", v[0])
	}
}

func TestInPlaceOps(t *testing.T) {
	v := Of(0.25, 0.5)
	v.AddInPlace(Of(0.25, 0.25))
	if !v.Equal(Of(0.5, 0.75), 1e-15) {
		t.Errorf("AddInPlace = %v", v)
	}
	v.SubInPlace(Of(0.5, 0.5))
	if !v.Equal(Of(0, 0.25), 1e-15) {
		t.Errorf("SubInPlace = %v", v)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	cases := []func(){
		func() { Of(1).Add(Of(1, 2)) },
		func() { Of(1).Sub(Of(1, 2)) },
		func() { Of(1).AddInPlace(Of(1, 2)) },
		func() { Of(1).SubInPlace(Of(1, 2)) },
		func() { Of(1).FitsWithin(Of(1, 2)) },
		func() { Of(1).Max(Of(1, 2)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on dimension mismatch", i)
				}
			}()
			f()
		}()
	}
}

func TestMaxNorm(t *testing.T) {
	cases := []struct {
		v    Vector
		want float64
	}{
		{Of(), 0},
		{Of(0.3), 0.3},
		{Of(0.1, 0.9, 0.5), 0.9},
		{Of(0, 0, 0), 0},
	}
	for _, c := range cases {
		if got := c.v.MaxNorm(); got != c.want {
			t.Errorf("MaxNorm(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSumNorm(t *testing.T) {
	if got := Of(0.1, 0.2, 0.3).SumNorm(); math.Abs(got-0.6) > 1e-15 {
		t.Errorf("SumNorm = %v, want 0.6", got)
	}
}

func TestPNorm(t *testing.T) {
	v := Of(3, 4)
	if got := v.PNorm(2); math.Abs(got-5) > 1e-12 {
		t.Errorf("PNorm(2) = %v, want 5", got)
	}
	if got := v.PNorm(1); math.Abs(got-7) > 1e-12 {
		t.Errorf("PNorm(1) = %v, want 7", got)
	}
	if got := v.PNorm(math.Inf(1)); got != 4 {
		t.Errorf("PNorm(inf) = %v, want 4", got)
	}
}

func TestPNormBelowOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PNorm(0.5) did not panic")
		}
	}()
	Of(1).PNorm(0.5)
}

func TestFitsWithin(t *testing.T) {
	cases := []struct {
		load, item Vector
		want       bool
	}{
		{Of(0.5, 0.5), Of(0.5, 0.5), true},           // exact fill
		{Of(0.5, 0.5), Of(0.6, 0.1), false},          // dim 0 overflow
		{Of(0.5, 0.5), Of(0.1, 0.6), false},          // dim 1 overflow
		{Of(0, 0), Of(1, 1), true},                   // full item in empty bin
		{Of(0.9999999999), Of(0.0000000001), true},   // within Eps
		{Of(1), Of(0.1), false},                      // clearly over
		{Of(0.3, 0.3, 0.3), Of(0.7, 0.7, 0.7), true}, // exact in 3-D
		{Of(0.3, 0.3, 0.3), Of(0.7, 0.71, 0.7), false},
	}
	for i, c := range cases {
		if got := c.load.FitsWithin(c.item); got != c.want {
			t.Errorf("case %d: FitsWithin(%v, %v) = %v, want %v", i, c.load, c.item, got, c.want)
		}
	}
}

func TestFitsWithinToleratesAccumulatedRounding(t *testing.T) {
	// Fill a bin with ten items of size 0.1 each: the float sum of 0.1 ten
	// times is not exactly 1, but the tenth item must still fit.
	load := New(1)
	item := Of(0.1)
	for i := 0; i < 10; i++ {
		if !load.FitsWithin(item) {
			t.Fatalf("item %d rejected at load %v", i, load)
		}
		load.AddInPlace(item)
	}
	if load.FitsWithin(Of(0.05)) {
		t.Fatalf("full bin accepted extra item at load %v", load)
	}
}

func TestLeqCapacity(t *testing.T) {
	if !Of(1, 0.5).LeqCapacity() {
		t.Error("LeqCapacity rejected feasible load")
	}
	if Of(1.001, 0.5).LeqCapacity() {
		t.Error("LeqCapacity accepted infeasible load")
	}
}

func TestEqual(t *testing.T) {
	if !Of(1, 2).Equal(Of(1, 2.0000001), 1e-3) {
		t.Error("Equal within tol failed")
	}
	if Of(1, 2).Equal(Of(1), 1) {
		t.Error("Equal across dims")
	}
	if Of(1, 2).Equal(Of(1, 3), 1e-3) {
		t.Error("Equal beyond tol")
	}
}

func TestNonNegative(t *testing.T) {
	if !Of(0, 1).NonNegative() {
		t.Error("NonNegative false negative")
	}
	if Of(-0.1, 1).NonNegative() {
		t.Error("NonNegative accepted negative")
	}
	if Of(math.NaN()).NonNegative() {
		t.Error("NonNegative accepted NaN")
	}
}

func TestMax(t *testing.T) {
	got := Of(1, 5).Max(Of(3, 2))
	if !got.Equal(Of(3, 5), 0) {
		t.Errorf("Max = %v", got)
	}
}

func TestSum(t *testing.T) {
	got := Sum(Of(1, 0), Of(0, 1), Of(1, 1))
	if !got.Equal(Of(2, 2), 1e-15) {
		t.Errorf("Sum = %v", got)
	}
	if Sum().Dim() != 0 {
		t.Error("Sum() should be 0-dimensional")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	cases := []Vector{Of(0.5), Of(0.25, 0.75), Of(1, 0, 0.125)}
	for _, v := range cases {
		got, err := Parse(v.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", v.String(), err)
		}
		if !got.Equal(v, 0) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestParseFormats(t *testing.T) {
	for _, s := range []string{"0.5 0.25", "[0.5 0.25]", "0.5,0.25", "[0.5, 0.25]"} {
		v, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !v.Equal(Of(0.5, 0.25), 0) {
			t.Errorf("Parse(%q) = %v", s, v)
		}
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse empty: want error")
	}
	if _, err := Parse("abc"); err == nil {
		t.Error("Parse garbage: want error")
	}
}

// randomVectors generates n vectors of dimension d with components in [0,1).
func randomVectors(r *rand.Rand, n, d int) []Vector {
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = New(d)
		for j := range vs[i] {
			vs[i][j] = r.Float64()
		}
	}
	return vs
}

// TestProposition1 property-tests both inequalities of Proposition 1:
//
//	‖Σ v_i‖∞ ≤ Σ ‖v_i‖∞ ≤ d·‖Σ v_i‖∞
func TestProposition1(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(nRaw, dRaw uint8) bool {
		n := int(nRaw%16) + 1
		d := int(dRaw%8) + 1
		vs := randomVectors(r, n, d)
		sum := Sum(vs...)
		sumOfNorms := 0.0
		for _, v := range vs {
			sumOfNorms += v.MaxNorm()
		}
		normOfSum := sum.MaxNorm()
		const slack = 1e-9
		return normOfSum <= sumOfNorms+slack && sumOfNorms <= float64(d)*normOfSum+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestProposition1Homogeneity property-tests ‖c·v‖∞ = c·‖v‖∞ for c ≥ 0.
func TestProposition1Homogeneity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(dRaw uint8, cRaw uint16) bool {
		d := int(dRaw%8) + 1
		c := float64(cRaw) / 1000
		v := randomVectors(r, 1, d)[0]
		cv := make(Vector, d)
		for i := range v {
			cv[i] = c * v[i]
		}
		return math.Abs(cv.MaxNorm()-c*v.MaxNorm()) < 1e-9*(1+c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNormOrdering property-tests ‖v‖∞ ≤ ‖v‖p ≤ ‖v‖1 for p ≥ 1.
func TestNormOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func(dRaw, pRaw uint8) bool {
		d := int(dRaw%8) + 1
		p := 1 + float64(pRaw%10)
		v := randomVectors(r, 1, d)[0]
		const slack = 1e-9
		return v.MaxNorm() <= v.PNorm(p)+slack && v.PNorm(p) <= v.SumNorm()+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAddSubInverse property-tests that Sub undoes Add up to tolerance.
func TestAddSubInverse(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := func(dRaw uint8) bool {
		d := int(dRaw%8) + 1
		vs := randomVectors(r, 2, d)
		back := vs[0].Add(vs[1]).Sub(vs[1])
		return back.Equal(vs[0], 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddInPlace(b *testing.B) {
	v := Uniform(8, 0.25)
	u := Uniform(8, 0.125)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.AddInPlace(u)
		v.SubInPlace(u)
	}
}

func BenchmarkFitsWithin(b *testing.B) {
	v := Uniform(8, 0.5)
	u := Uniform(8, 0.25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.FitsWithin(u)
	}
}

func BenchmarkMaxNorm(b *testing.B) {
	v := Uniform(16, 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.MaxNorm()
	}
}
