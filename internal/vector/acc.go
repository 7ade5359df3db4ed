package vector

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Acc is an exact, order-independent accumulator for one dimension of a bin
// load. It supports adding and removing float64 values in O(1) and exposes
// the running sum correctly rounded to float64 via Round.
//
// Why the engine needs it: bin loads drive Best/Worst Fit decisions through
// exact float comparisons, and the engine's documented contract is that two
// different pack/depart histories reaching the same active item set expose
// bit-identical loads. Plain running addition cannot honour that contract —
// float64 addition is neither associative nor exactly invertible, so
// ((a+b)-a) generally differs from b in the last ulp — and the pre-incremental
// engine paid O(k·log k) per event re-summing all k active items in a
// canonical order instead. Compensated (Neumaier) summation narrows the error
// but its compensation term itself rounds, so it is order-dependent too.
//
// Acc sidesteps rounding entirely: it holds the *exact* sum as a fixed-point
// integer. Every float64 is an integer multiple of 2^-1074, so each Add/Sub
// contributes an exact integer; integer addition is associative and
// commutative, and a removed value cancels its own contribution exactly. The
// sum is therefore a pure function of the multiset of currently-accumulated
// values, and Round and AppendBinary read nothing but the sum: any history
// reaching the same active set gives identical results, which is precisely
// the determinism contract. Nothing decodes AppendBinary's payload: it is
// canonical, so two sums are equal exactly when their payloads are, and a
// restored engine compares payloads.
//
// Two representations hold that integer. While every value added since the
// last Reset is a multiple of 2^-100 below 2^25 in magnitude, and the sum
// lies in [−2^25, 2^25), the sum is one signed 128-bit integer in units of
// 2^-100 (the frame): every float64 in [2^-48, 2^25) qualifies, so bin-load
// sizes from 2^-48 up stay in it. Add/Sub are then a shift and a 128-bit
// add, and Round a leading-zero count, a shift and a ties-to-even step. The
// first value or sum that leaves the frame moves the sum into a
// superaccumulator of 67 limbs, the fixed-point integer over the whole
// float64 range in 32-bit digits, the way exact-summation literature
// (Shewchuk's expansions, Neal's superaccumulators) represents float sums;
// the limbs are allocated on first need and kept across Reset, and the sum
// stays in them until Reset. There Add/Sub touch three limbs and Round runs
// a carry pass over the limbs in use. Which representation an Acc is in
// depends on its history, so nothing but speed depends on it.
//
// Costs: an Acc is 32 B, plus 544 B of limbs once it has spilled. Limb
// magnitudes grow with the number of *active* values (cancelled pairs
// contribute zero), overflowing int64 only beyond 2^30 simultaneously-active
// values per accumulator — far past anything a bin can hold. An Acc that has
// spilled must not be copied: the copy would share its limbs.
type Acc struct {
	// hi:lo is the sum in frame units, a signed 128-bit two's-complement
	// integer, while spilled is false.
	hi int64
	lo uint64
	// w holds the sum while spilled is true. The first spill allocates it;
	// Reset zeroes it and keeps it.
	w       *limbs
	spilled bool
}

// The frame: the sum in units of 2^-frameUnit, each summand below
// 2^frameBits units (2^25) in magnitude and the sum in [−2^frameBits,
// 2^frameBits). Its unit is bit 32·frameLimb + frameOff of the limbs' frame,
// whose unit is 2^-1074.
const (
	frameUnit = 100
	frameBits = 125
	frameLimb = (1074 - frameUnit) / 32
	frameOff  = (1074 - frameUnit) % 32
)

// numAccLimbs covers the full finite float64 range: bit p of the limbs'
// frame (value scaled by 2^1074) lives in limb p>>5, and the highest frame
// bit of the largest finite float64 is 2045+52, so limb 65 is the last one
// ever touched.
const numAccLimbs = 67

// Add accumulates x exactly. It panics on NaN or ±Inf (item sizes and loads
// are validated finite everywhere upstream, so a non-finite value here is a
// programming error).
func (a *Acc) Add(x float64) {
	if !a.spilled {
		// |x| = m·2^(e-1075), that is m·2^s frame units. It fits the frame
		// when 0 ≤ s ≤ 72, so that m·2^s < 2^125, or when s < 0 and the
		// bits of m below the unit are zero. A subnormal's m (here with bit
		// 52 set all the same) never passes; zero then fits.
		b := math.Float64bits(x)
		s := int(b>>52&0x7FF) - (1075 - frameUnit)
		m := b&(1<<52-1) | 1<<52
		var hi, lo uint64
		fits := true
		switch {
		case uint(s) <= frameBits-53:
			u := uint(s)
			hi, lo = m>>(64-u)|m<<(u-64), m<<u
		case s < 0 && m&(1<<uint(-s)-1) == 0:
			lo = m >> uint(-s)
		case b<<1 == 0:
			return
		default:
			fits = false
		}
		if fits {
			var c uint64
			if int64(b) < 0 {
				lo, c = bits.Sub64(a.lo, lo, 0)
				hi = uint64(a.hi) - hi - c
			} else {
				lo, c = bits.Add64(a.lo, lo, 0)
				hi = uint64(a.hi) + hi + c
			}
			if inBound(int64(hi)) {
				a.hi, a.lo = int64(hi), lo
				return
			}
		}
		a.spill()
	}
	a.w.add(x)
}

// Sub removes x exactly: Sub(x) is Add(-x), and after adding and removing
// the same value the accumulator holds the sum it held before.
func (a *Acc) Sub(x float64) { a.Add(-x) }

// inBound reports whether a sum in frame units whose upper word is hi lies
// in the frame's range [−2^125, 2^125).
func inBound(hi int64) bool { return uint64(hi)+1<<(frameBits-64) < 1<<(frameBits-63) }

// neg128 returns −(hi:lo) in 128-bit two's complement.
func neg128(hi, lo uint64) (uint64, uint64) {
	lo, borrow := bits.Sub64(0, lo, 0)
	return -hi - borrow, lo
}

// Round returns the exact accumulated sum rounded to the nearest float64
// (ties to even), or ±Inf past the largest finite float64. The result is a
// pure function of the accumulated multiset: identical active sets give
// bit-identical results regardless of the Add/Sub order that produced them.
func (a *Acc) Round() float64 {
	if a.spilled {
		return a.w.round()
	}
	hi, lo := uint64(a.hi), a.lo
	sign := hi & (1 << 63)
	if sign != 0 {
		hi, lo = neg128(hi, lo)
	}
	// Shift the magnitude up until its leading bit is hi's top bit, worth
	// 2^e.
	e := 127 - frameUnit
	if hi == 0 {
		if lo == 0 {
			return 0
		}
		hi, lo, e = lo, 0, e-64
	}
	z := uint(bits.LeadingZeros64(hi))
	hi, lo, e = hi<<z|lo>>(64-z), lo<<z, e-int(z)
	// Keep 53 bits and round the 75 below them to nearest, ties to even.
	mant := hi >> 11
	if hi&(1<<10) != 0 && (hi&(1<<10-1)|lo != 0 || mant&1 != 0) {
		mant++
	}
	// The magnitude lies in [2^-100, 2^25], so the result is a normal
	// float64. mant's leading bit adds one to the exponent field, and a mant
	// rounded up to 2^53 adds two: the next binade.
	return math.Float64frombits(sign | (uint64(e+1022)<<52 + mant))
}

// spill moves the sum into the limbs, allocating them on first need.
func (a *Acc) spill() {
	if a.w == nil {
		a.w = new(limbs)
	}
	d, neg := frameDigits(a.hi, a.lo)
	sign := int64(1)
	if neg {
		sign = -1
	}
	for k, v := range d {
		a.w.limb[frameLimb+k] = sign * int64(v)
	}
	a.w.lo, a.w.hi, a.w.used = frameLimb, frameLimb+4, true
	a.hi, a.lo, a.spilled = 0, 0, true
}

// frameDigits returns |hi:lo|, a sum in frame units, as base-2^32 digits of
// the limbs' frame, limbs frameLimb to frameLimb+4, and whether hi:lo is
// negative.
func frameDigits(hi int64, lo uint64) (d [5]uint32, neg bool) {
	h := uint64(hi)
	if neg = hi < 0; neg {
		h, lo = neg128(h, lo)
	}
	return [5]uint32{
		uint32(lo << frameOff),
		uint32(lo >> (32 - frameOff)),
		uint32(lo>>(64-frameOff) | h<<frameOff),
		uint32(h >> (32 - frameOff)),
		uint32(h >> (64 - frameOff)),
	}, neg
}

// Reset clears the accumulator to zero. It keeps spilled limbs for the next
// spill.
func (a *Acc) Reset() {
	a.hi, a.lo = 0, 0
	if a.spilled {
		a.w.reset()
		a.spilled = false
	}
}

// digits writes the base-2^32 digits of the sum's magnitude into d, digit i
// at d[i], and reports whether the sum is negative.
func (a *Acc) digits(d *[numAccLimbs + 2]uint32) (neg bool) {
	if a.spilled {
		return a.w.digits(d)
	}
	f, neg := frameDigits(a.hi, a.lo)
	copy(d[frameLimb:], f[:])
	return neg
}

// AppendBinary serialises the accumulator's exact sum onto dst and returns
// the extended slice. The payload is canonical, a function of the sum alone:
// a zero sum is one 0 byte, and any other is the flag 1, the indices lo and
// hi of its lowest and highest non-zero base-2^32 digit (2 bytes each,
// little-endian) and, from lo to hi, each digit times the sum's sign as an
// 8-byte little-endian limb. A bin-load sum costs a few dozen bytes. It
// allocates nothing beyond growing dst.
func (a *Acc) AppendBinary(dst []byte) []byte {
	var d [numAccLimbs + 2]uint32
	neg := a.digits(&d)
	lo, hi := 0, len(d)-1
	for lo <= hi && d[lo] == 0 {
		lo++
	}
	for hi >= lo && d[hi] == 0 {
		hi--
	}
	if hi < lo {
		return append(dst, 0)
	}
	dst = append(dst, 1, byte(lo), byte(lo>>8), byte(hi), byte(hi>>8))
	for _, v := range d[lo : hi+1] {
		limb := uint64(v)
		if neg {
			limb = -limb
		}
		dst = binary.LittleEndian.AppendUint64(dst, limb)
	}
	return dst
}

// limbs is the spilled representation: the sum in units of 2^-1074 as
// Σ limb[i]·2^(32i). Each Add or Sub adds a 32-bit slice of the value's
// mantissa to each of three limbs, without carrying, so a limb may exceed
// 32 bits or go negative; Round and digits carry.
type limbs struct {
	limb [numAccLimbs]int64
	// lo, hi bound the limb indices written since the last reset; used is
	// false while none has been, so the zero value is ready to use.
	lo, hi int16
	used   bool
}

func (w *limbs) add(x float64) {
	if x == 0 {
		return
	}
	b := math.Float64bits(x)
	sign := int64(1)
	if b>>63 != 0 {
		sign, b = -1, b&^(1<<63)
	}
	e := int(b >> 52)
	m := b & (1<<52 - 1)
	if e == 0x7FF {
		panic("vector: Acc cannot accumulate Inf or NaN")
	}
	if e == 0 {
		e = 1 // subnormal: same scale as e=1, no implicit bit
	} else {
		m |= 1 << 52
	}
	// x = ±m·2^(e-1075); in the limbs' frame (scaled by 2^1074) the mantissa
	// starts at bit p = e-1 and spans three 32-bit limbs.
	p := e - 1
	i, off := p>>5, uint(p&31)
	w.limb[i] += sign * int64((m<<off)&0xFFFFFFFF)
	w.limb[i+1] += sign * int64((m>>(32-off))&0xFFFFFFFF)
	w.limb[i+2] += sign * int64(m>>(64-off))
	if !w.used {
		w.lo, w.hi, w.used = int16(i), int16(i+2), true
		return
	}
	if int16(i) < w.lo {
		w.lo = int16(i)
	}
	if int16(i+2) > w.hi {
		w.hi = int16(i + 2)
	}
}

// round is Round over the limbs. Every sum of float64 values is a multiple
// of 2^-1074, so a subnormal result is exact, and so is the 53-bit mantissa
// that Ldexp denormalises into it.
func (w *limbs) round() float64 {
	if !w.used {
		return 0
	}
	hi, lo, h, sticky, neg := w.top(1)
	if neg {
		// The exact value is negative (possible for a general caller even
		// though bin loads never are): round the magnitude instead.
		hi, lo, h, sticky, _ = w.top(-1)
	}
	if h < 0 {
		return 0
	}
	// hi and lo hold the top four digits, a 128-bit window A (the leading
	// digit is non-zero, so A has 97..128 significant bits — enough for a
	// 53-bit mantissa plus round and sticky); everything below is in sticky.
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
		mant++ // mant may reach 2^53, which is 2^52 one binade up
	}
	// The value is mant·2^exp with mant in [2^52, 2^53]. A normal result is
	// assembled from its bits; a subnormal or overflowing one goes through
	// Ldexp, which saturates an overflow to Inf.
	exp := 32*(int(w.lo)+h-3) - 1074 + shift
	if mant == 1<<53 {
		mant, exp = 1<<52, exp+1
	}
	var v float64
	if be := exp + 1075; be >= 1 && be <= 2046 {
		v = math.Float64frombits(uint64(be)<<52 | mant&(1<<52-1))
	} else {
		v = math.Ldexp(float64(mant), exp)
	}
	if neg {
		v = -v
	}
	return v
}

// top runs the carry pass over sign·limbs, turning them into canonical
// base-2^32 digits from the lowest up, and keeps only the four digits that
// end at the highest non-zero one, as hi (that digit and the one below) and
// lo (the next two; zero below the first digit). h is the top digit's
// position above limb lo, -1 when every digit is zero, and sticky reports a
// non-zero digit below the four. A positive final carry extends the digits
// above the limb window; a negative one means sign·value < 0 (neg), and the
// digits mean nothing.
func (w *limbs) top(sign int64) (hi, lo uint64, h int, sticky, neg bool) {
	h = -1
	var carry int64
	n := int(w.hi-w.lo) + 1
	for j := 0; ; j++ {
		var d int64
		switch {
		case j < n:
			t := sign*w.limb[int(w.lo)+j] + carry
			d = t & 0xFFFFFFFF
			carry = (t - d) >> 32
		case carry > 0:
			d = carry & 0xFFFFFFFF
			carry >>= 32
		default:
			return hi, lo, h, sticky, carry < 0
		}
		if d == 0 {
			continue
		}
		// Slide the window up to end at digit j; the digits between the
		// old top and j are zero.
		switch j - h {
		case 1:
			sticky = sticky || uint32(lo) != 0
			lo, hi = lo>>32|hi<<32, hi>>32
		case 2:
			sticky = sticky || lo != 0
			lo, hi = hi, 0
		case 3:
			sticky = sticky || lo != 0 || uint32(hi) != 0
			lo, hi = hi>>32, 0
		default:
			sticky = sticky || lo|hi != 0
			lo, hi = 0, 0
		}
		hi |= uint64(d) << 32
		h = j
	}
}

// digits writes the base-2^32 digits of the sum's magnitude into d, digit i
// at d[i], and reports whether the sum is negative. Limbs below ±2^62 leave
// at most one digit past the last limb.
func (w *limbs) digits(d *[numAccLimbs + 2]uint32) (neg bool) {
	if !w.used {
		return false
	}
	if w.carry(d, 1) < 0 {
		w.carry(d, -1)
		return true
	}
	return false
}

// carry writes the digits of sign·sum into d, from limb lo up, and returns
// the final carry, which is negative when sign·sum is (and the digits then
// mean nothing).
func (w *limbs) carry(d *[numAccLimbs + 2]uint32, sign int64) int64 {
	var c int64
	i := int(w.lo)
	for ; i <= int(w.hi); i++ {
		t := sign*w.limb[i] + c
		v := t & 0xFFFFFFFF
		c = (t - v) >> 32
		d[i] = uint32(v)
	}
	for ; c > 0 && i < len(d); i++ {
		d[i] = uint32(c)
		c >>= 32
	}
	return c
}

// reset zeroes the limbs in the window.
func (w *limbs) reset() {
	if !w.used {
		return
	}
	clear(w.limb[w.lo : w.hi+1])
	w.lo, w.hi, w.used = 0, 0, false
}
