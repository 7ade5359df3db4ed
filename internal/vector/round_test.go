package vector

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// units returns x as an integer multiple of 2^-1074, the unit every float64
// is a multiple of.
func units(x float64) *big.Int {
	b := math.Float64bits(x)
	e := int(b>>52) & 0x7FF
	m := b & (1<<52 - 1)
	if e == 0 {
		e = 1
	} else {
		m |= 1 << 52
	}
	u := new(big.Int).Lsh(new(big.Int).SetUint64(m), uint(e-1))
	if b>>63 != 0 {
		u.Neg(u)
	}
	return u
}

// fromUnits rounds s·2^-1074 to float64 with math/big: Float64 rounds to
// nearest, ties to even, subnormals included, and gives ±Inf past the
// largest finite float64.
func fromUnits(s *big.Int) float64 {
	f, _ := new(big.Float).SetMantExp(new(big.Float).SetInt(s), -1074).Float64()
	return f
}

// exactSum is the oracle for Acc: the exact sum of values as an integer in
// units of 2^-1074, correctly rounded by fromUnits. It shares no code with
// Acc.
func exactSum(values []float64) float64 {
	var s big.Int
	for _, v := range values {
		s.Add(&s, units(v))
	}
	return fromUnits(&s)
}

// canonical is the oracle's wire form of s, a sum in units of 2^-1074, built
// with math/big: the zero payload for zero, else the flag 1, the indices of
// the lowest and highest non-zero base-2^32 digit of |s| (2 bytes each,
// little-endian) and, from the lowest to the highest, each digit times the
// sign of s as an 8-byte little-endian limb.
func canonical(s *big.Int) []byte {
	if s.Sign() == 0 {
		return []byte{0}
	}
	var d []uint32
	for _, w := range s.Bits() { // |s|, lowest word first
		for k := 0; k < bits.UintSize; k += 32 {
			d = append(d, uint32(uint64(w)>>k))
		}
	}
	lo, hi := 0, len(d)-1
	for d[lo] == 0 {
		lo++
	}
	for d[hi] == 0 {
		hi--
	}
	p := []byte{1, byte(lo), byte(lo >> 8), byte(hi), byte(hi >> 8)}
	for _, v := range d[lo : hi+1] {
		limb := uint64(v)
		if s.Sign() < 0 {
			limb = -limb
		}
		p = binary.LittleEndian.AppendUint64(p, limb)
	}
	return p
}

// checkAcc holds a to s, the oracle's exact sum of a's multiset in units of
// 2^-1074: Round bit for bit, and the wire form byte for byte.
func checkAcc(t *testing.T, what string, a *Acc, s *big.Int) {
	t.Helper()
	if got, want := a.Round(), fromUnits(s); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Round = %v (%#x), the oracle gives %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := a.AppendBinary(nil), canonical(s); string(got) != string(want) {
		t.Fatalf("%s: AppendBinary = % x, the oracle gives % x", what, got, want)
	}
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

// frameSummand draws a value the two-word frame holds: bin-load sizes,
// tenths, 1 ± one ulp and normals of the binades from 2^-45 to 2^24. Any of
// them may be negative.
func frameSummand(r *rand.Rand) float64 {
	var x float64
	switch r.Intn(4) {
	case 0:
		x = r.Float64()
	case 1:
		x = float64(r.Intn(11)) / 10
	case 2:
		x = math.Nextafter(1, math.Inf(1+r.Intn(2)*-2))
	default:
		x = math.Ldexp(1+r.Float64(), r.Intn(70)-45)
	}
	if r.Intn(3) == 0 {
		x = -x
	}
	return x
}

// TestRoundMatchesOracle holds both representations to the oracle over
// random multisets: Round bit for bit and the wire form byte for byte, on
// negative sums, subnormals, values up to 2^1000 and past the
// largest finite sum, and exact cancellation to zero. Half the multisets
// draw only values the two-word frame holds. Each multiset is accumulated
// twice: a, which spills only if a value leaves the frame, and b, which a
// value added and removed again spilled first; a and b must agree on
// everything. Then values at the ends of the float64 range are added and
// removed again, and some kept values removed.
func TestRoundMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	spills := 0
	for n := 0; n < 30_000; n++ {
		draw := randomSummand
		if n%2 == 0 {
			draw = frameSummand
		}
		var a, b Acc
		var s big.Int
		b.Add(math.SmallestNonzeroFloat64)
		b.Sub(math.SmallestNonzeroFloat64)
		var w []byte
		step := func(what string, x float64) {
			t.Helper()
			a.Add(x)
			b.Add(x)
			s.Add(&s, units(x))
			want, wantBytes := fromUnits(&s), canonical(&s)
			for _, acc := range []*Acc{&a, &b} {
				if got := acc.Round(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Round = %v (%#x), the oracle gives %v (%#x); spilled %v",
						what, got, math.Float64bits(got), want, math.Float64bits(want), acc.spilled)
				}
				if w = acc.AppendBinary(w[:0]); string(w) != string(wantBytes) {
					t.Fatalf("%s: AppendBinary = % x, the oracle gives % x; spilled %v", what, w, wantBytes, acc.spilled)
				}
			}
		}
		kept := make([]float64, 1+r.Intn(8))
		for i := range kept {
			kept[i] = draw(r)
			step("sum", kept[i])
		}
		if a.spilled {
			spills++
		}
		wide := []float64{math.Ldexp(1, 1000), math.SmallestNonzeroFloat64, -math.Ldexp(1, -1000), math.MaxFloat64}
		for _, x := range wide[:1+r.Intn(len(wide))] {
			step("widened", x)
			step("widened then narrowed", -x)
		}
		for _, x := range kept[:r.Intn(len(kept)+1)] {
			step("partly removed", -x)
		}
	}
	if spills < 5_000 || spills > 25_000 {
		t.Errorf("%d of 30000 multisets spilled before the widening; the test needs both representations", spills)
	}
}

// TestAccFrameEdges walks the two-word frame's edges and holds the
// accumulator to the oracle at every step, asserting the representation
// only where the frame's definition fixes it: a summand whose lowest set bit
// is the unit 2^-100 stays in the frame and one a binade below spills; so
// does a summand just below 2^25 and 2^25 itself; a sum one unit inside the
// bound stays and one unit over spills, on both signs; a sum that cancels
// exactly is zero in either representation; Reset after a spill returns to
// the frame; an accumulator in the frame holds a sum that fits it.
func TestAccFrameEdges(t *testing.T) {
	const (
		unit    = 0x1p-100
		topOf53 = 1<<53 - 1
	)
	// Three summands, each in the frame, whose sum has every bit from 2^-100
	// to 2^24 set: one unit below the bound 2^25.
	belowBound := []float64{topOf53 * 0x1p-28, topOf53 * 0x1p-81, (1<<19 - 1) * unit}
	cases := []struct {
		name   string
		values []float64 // each is added in turn
		spill  bool      // the representation after the last one
	}{
		{"unit", []float64{unit}, false},
		{"odd multiple of the unit", []float64{topOf53 * unit}, false},
		{"half the unit", []float64{unit / 2}, true},
		{"odd multiple of half the unit", []float64{3 * unit / 2}, true},
		{"largest summand", []float64{topOf53 * 0x1p-28}, false},
		{"2^25", []float64{0x1p25}, true},
		{"-2^25", []float64{-0x1p25}, true},
		{"subnormal", []float64{math.SmallestNonzeroFloat64}, true},
		{"sum one unit inside the bound", belowBound, false},
		{"sum at the bound", append(belowBound[:3:3], unit), true},
		{"negative sum one unit inside the bound", neg(belowBound), false},
		{"negative sum at the bound", append(neg(belowBound), -unit), false},
		{"negative sum one unit over the bound", append(neg(belowBound), -unit, -unit), true},
		{"cancellation in the frame", []float64{0.25, 0.5, -0.75}, false},
		{"cancellation after a spill", []float64{0.25, unit / 2, 0.5, -unit / 2, -0.75}, true},
		{"spill and return", []float64{1, 0x1p1000, -0x1p1000}, true},
	}
	for _, c := range cases {
		var a Acc
		var s big.Int
		for _, x := range c.values {
			a.Add(x)
			s.Add(&s, units(x))
			checkAcc(t, c.name, &a, &s)
		}
		if a.spilled != c.spill {
			t.Errorf("%s: spilled = %v, want %v", c.name, a.spilled, c.spill)
		}
		if !a.spilled && !fitsFrame(&s) {
			t.Errorf("%s: the accumulator is in the frame with a sum that does not fit it", c.name)
		}
		a.Reset()
		if a.spilled {
			t.Errorf("%s: Reset left the accumulator spilled", c.name)
		}
		a.Add(0.5)
		checkAcc(t, c.name+", reset, then 0.5", &a, units(0.5))
		if a.spilled {
			t.Errorf("%s: 0.5 after Reset spilled", c.name)
		}
	}
}

// fitsFrame reports whether s, a sum in units of 2^-1074, is a multiple of
// the frame's unit 2^-100 in [−2^25, 2^25).
func fitsFrame(s *big.Int) bool {
	unit := new(big.Int).Lsh(big.NewInt(1), 974)
	bound := new(big.Int).Lsh(big.NewInt(1), 1099)
	return new(big.Int).Mod(s, unit).Sign() == 0 && s.Cmp(bound) < 0 && s.Cmp(new(big.Int).Neg(bound)) >= 0
}

func neg(values []float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = -v
	}
	return out
}

// TestAccSubnormalSumsAreExact: every sum of float64 values is a multiple
// of 2^-1074, so a sum in the subnormal range is a float64 and Round returns
// it exactly. The multisets mix subnormals of both signs with normals just
// above 2^-1022 that cancel into the subnormal range.
func TestAccSubnormalSumsAreExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	subnormal := 0
	for n := 0; n < 20_000; n++ {
		var a Acc
		var s big.Int
		for k := 1 + r.Intn(6); k > 0; k-- {
			x := math.Float64frombits(uint64(r.Int63n(1 << 52)))
			if r.Intn(2) == 0 {
				x = math.Float64frombits(1<<52 | uint64(r.Int63n(1<<20))) // 2^-1022 and a few ulps above
			}
			if r.Intn(2) == 0 {
				x = -x
			}
			a.Add(x)
			s.Add(&s, units(x))
			checkAcc(t, "subnormal multiset", &a, &s)
		}
		if v := math.Abs(a.Round()); v != 0 && v < 0x1p-1022 {
			subnormal++
		}
	}
	if subnormal < 1000 {
		t.Errorf("only %d of 20000 multisets summed to a subnormal", subnormal)
	}
}

// fuzzValues are the values FuzzAcc's programs draw besides raw bit
// patterns: bin-load sizes, 1 ± one ulp, the subnormal range's ends, the
// frame's unit and half of it, the largest summand the frame holds and 2^25,
// 2^1000 and the largest finite float64.
var fuzzValues = []float64{
	0, 0.1, 0.25, 0.5, 1, 1.0 / 3, math.Nextafter(1, 2), math.Nextafter(1, 0),
	math.SmallestNonzeroFloat64, 0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022,
	0x1p-100, 0x1p-101, 3 * 0x1p-100, (1<<53 - 1) * 0x1p-28, 0x1p25,
	0x1p1000, math.MaxFloat64,
}

// FuzzAcc runs a fuzzed program of Add, Sub and Reset over fuzzValues and
// raw float64 bit patterns. Each op byte's low two bits pick Add, Sub,
// removal of a surviving value (exact cancellation) or Reset; bit 2 reads
// the value from the next 8 bytes rather than from fuzzValues; the top five
// bits index fuzzValues or the surviving values. After every step Round and
// the wire form must match the oracle, and the wire form must equal that of
// an accumulator rebuilt from the surviving multiset, and differ from that
// of it plus the smallest subnormal.
func FuzzAcc(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1 << 3, 2 << 3, 1<<3 | 1, 2, 3, 3 << 3})                      // 0.1 + 0.25 − 0.1, cancel, reset, 0.5
	f.Add([]byte{8 << 3, 16 << 3, 1 << 3, 2, 2, 2, 1 << 3})                    // a subnormal, 2^1000, 0.1, cancel all
	f.Add([]byte{14 << 3, 14 << 3, 14<<3 | 1, 14<<3 | 1, 11 << 3, 12 << 3, 3}) // past the frame's bound and back
	f.Add(append([]byte{4}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(-0.3))...))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		var a Acc
		var s big.Int
		var live []float64
		for len(prog) > 0 {
			op := prog[0]
			prog = prog[1:]
			x := fuzzValues[int(op>>3)%len(fuzzValues)]
			if op&4 != 0 {
				if len(prog) < 8 {
					return
				}
				x = math.Float64frombits(binary.LittleEndian.Uint64(prog))
				prog = prog[8:]
				if math.IsInf(x, 0) || math.IsNaN(x) {
					continue
				}
			}
			switch op & 3 {
			case 0:
				a.Add(x)
				s.Add(&s, units(x))
				live = append(live, x)
			case 1:
				a.Sub(x)
				s.Sub(&s, units(x))
				live = append(live, -x)
			case 2:
				if len(live) == 0 {
					continue
				}
				k := int(op>>3) % len(live)
				a.Sub(live[k])
				s.Sub(&s, units(live[k]))
				live = append(live[:k], live[k+1:]...)
			default:
				a.Reset()
				s.SetInt64(0)
				live = live[:0]
			}
			checkAcc(t, "step", &a, &s)
			var rebuilt Acc
			for _, v := range live {
				rebuilt.Add(v)
			}
			got := string(a.AppendBinary(nil))
			if got != string(rebuilt.AppendBinary(nil)) {
				t.Fatalf("the accumulator (Round %v) differs from one rebuilt from its multiset %v (Round %v)", a.Round(), live, rebuilt.Round())
			}
			rebuilt.Add(math.SmallestNonzeroFloat64)
			if got == string(rebuilt.AppendBinary(nil)) {
				t.Fatalf("the accumulator serialises as one holding 2^-1074 more")
			}
		}
	})
}
