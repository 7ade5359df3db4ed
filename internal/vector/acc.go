package vector

import (
	"fmt"
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
// Acc sidesteps rounding entirely: it maintains the *exact* sum as a
// fixed-point integer spread over 32-bit limbs ("superaccumulator"), the way
// exact-summation literature (Shewchuk's expansions, Neal's superaccumulators)
// represents float sums. Every float64 is an integer multiple of 2^-1074, so
// each Add/Sub contributes exact integer limb increments; integer addition is
// associative and commutative, and a removed value cancels its own
// contribution exactly. The limb vector is therefore a pure function of the
// multiset of currently-accumulated values — any history reaching the same
// active set yields identical limbs, hence identical Round outputs, which is
// precisely the determinism contract.
//
// Costs: an Acc is ~0.5 KiB; Add/Sub touch three limbs; Round scans only the
// limb window actually in use (a handful of limbs for realistic size
// distributions, ≤ numAccLimbs always). Limb magnitudes grow with the number
// of *active* values (cancelled pairs contribute zero), overflowing int64
// only beyond 2^30 simultaneously-active values per accumulator — far past
// anything a bin can hold.
type Acc struct {
	limb [numAccLimbs]int64
	// lo, hi bound the limb indices written since the last Reset (or ever,
	// for the zero value); used is false while no value has been added, so
	// the zero value is ready to use.
	lo, hi int16
	used   bool
}

// numAccLimbs covers the full finite float64 range: bit p of the fixed-point
// frame (value scaled by 2^1074) lives in limb p>>5, and the highest frame
// bit of the largest finite float64 is 2045+52, so limb 65 is the last one
// ever touched.
const numAccLimbs = 67

// Add accumulates x exactly. It panics on NaN or ±Inf (item sizes and loads
// are validated finite everywhere upstream, so a non-finite value here is a
// programming error).
func (a *Acc) Add(x float64) { a.accumulate(x, 1) }

// Sub removes x exactly: Sub(x) is Add(-x), and after adding and removing
// the same value the accumulator is bit-identical to never having seen it.
func (a *Acc) Sub(x float64) { a.accumulate(x, -1) }

func (a *Acc) accumulate(x float64, sign int64) {
	if x == 0 {
		return
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		sign, b = -sign, b&^(1<<63)
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
	// x = ±m·2^(e-1075); in the fixed-point frame (scaled by 2^1074) the
	// mantissa starts at bit p = e-1 and spans three 32-bit limbs.
	p := e - 1
	i, off := p>>5, uint(p&31)
	a.limb[i] += sign * int64((m<<off)&0xFFFFFFFF)
	a.limb[i+1] += sign * int64((m>>(32-off))&0xFFFFFFFF)
	a.limb[i+2] += sign * int64(m>>(64-off))
	if !a.used {
		a.lo, a.hi, a.used = int16(i), int16(i+2), true
		return
	}
	if int16(i) < a.lo {
		a.lo = int16(i)
	}
	if int16(i+2) > a.hi {
		a.hi = int16(i + 2)
	}
}

// Round returns the exact accumulated sum rounded to the nearest float64
// (ties to even). The result is a pure function of the accumulated multiset:
// identical active sets give bit-identical results regardless of the
// Add/Sub order that produced them. (In the far subnormal range the value is
// rounded to 53 bits before Ldexp denormalises it, so it may differ from the
// infinitely-precise rounding by one ulp — still deterministically.)
func (a *Acc) Round() float64 {
	if !a.used {
		return 0
	}
	hi, lo, h, sticky, neg := a.top(1)
	if neg {
		// The exact value is negative (possible for a general caller even
		// though bin loads never are): round the magnitude instead.
		hi, lo, h, sticky, _ = a.top(-1)
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
	// Ldexp, which rounds it again or saturates it to Inf.
	exp := 32*(int(a.lo)+h-3) - 1074 + shift
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
func (a *Acc) top(sign int64) (hi, lo uint64, h int, sticky, neg bool) {
	h = -1
	var carry int64
	n := int(a.hi-a.lo) + 1
	for j := 0; ; j++ {
		var d int64
		switch {
		case j < n:
			t := sign*a.limb[int(a.lo)+j] + carry
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

// Reset clears the accumulator to zero, touching only the limb window in use.
func (a *Acc) Reset() {
	if !a.used {
		return
	}
	for i := a.lo; i <= a.hi; i++ {
		a.limb[i] = 0
	}
	a.lo, a.hi, a.used = 0, 0, false
}

// accBinaryHeader is the byte size of the non-limb part of the Acc wire
// format: a used flag plus the lo and hi window bounds.
const accBinaryHeader = 1 + 2 + 2

// AppendBinary serialises the accumulator's exact state onto dst and returns
// the extended slice. Only the limb window actually in use is written, so an
// idle accumulator costs one byte and a realistic bin-load accumulator a few
// dozen. The format round-trips bit-exactly through UnmarshalBinary: the
// persistence layer relies on a restored accumulator being indistinguishable
// from the original (same limbs, same Round output).
func (a *Acc) AppendBinary(dst []byte) []byte {
	if !a.used {
		return append(dst, 0)
	}
	dst = append(dst, 1, byte(a.lo), byte(a.lo>>8), byte(a.hi), byte(a.hi>>8))
	for i := a.lo; i <= a.hi; i++ {
		v := uint64(a.limb[i])
		dst = append(dst,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return dst
}

// UnmarshalBinary replaces the accumulator's state with the serialised state
// in data, which must be exactly one AppendBinary payload. Malformed input —
// wrong length, out-of-range window bounds — returns an error and leaves the
// accumulator reset; it never panics, so arbitrary (possibly corrupted)
// checkpoint bytes are safe to feed through it.
func (a *Acc) UnmarshalBinary(data []byte) error {
	a.Reset()
	if len(data) == 1 && data[0] == 0 {
		return nil
	}
	if len(data) < accBinaryHeader || data[0] != 1 {
		return fmt.Errorf("vector: malformed Acc state (%d bytes)", len(data))
	}
	lo := int16(uint16(data[1]) | uint16(data[2])<<8)
	hi := int16(uint16(data[3]) | uint16(data[4])<<8)
	if lo < 0 || hi < lo || hi >= numAccLimbs {
		return fmt.Errorf("vector: Acc limb window [%d, %d] out of range", lo, hi)
	}
	if want := accBinaryHeader + 8*(int(hi)-int(lo)+1); len(data) != want {
		return fmt.Errorf("vector: Acc state is %d bytes, want %d for window [%d, %d]", len(data), want, lo, hi)
	}
	p := data[accBinaryHeader:]
	for i := lo; i <= hi; i++ {
		a.limb[i] = int64(uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56)
		p = p[8:]
	}
	a.lo, a.hi, a.used = lo, hi, true
	return nil
}

// Equal reports whether a and b hold the same limbs. The limbs are a pure
// function of the accumulated multiset, so two accumulators that saw the
// same values compare equal whatever else they saw and removed since their
// last Reset. Their limb windows may differ: a window keeps every limb
// written since the last Reset, including limbs a later Sub left at zero.
// Every limb outside a window is zero, so comparing over the union of the
// two windows compares everything.
func (a *Acc) Equal(b *Acc) bool {
	lo, hi := a.lo, a.hi
	switch {
	case !a.used && !b.used:
		return true
	case !a.used:
		lo, hi = b.lo, b.hi
	case b.used:
		lo, hi = min(lo, b.lo), max(hi, b.hi)
	}
	for i := lo; i <= hi; i++ {
		if a.limb[i] != b.limb[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether the exact accumulated sum is zero. Unlike comparing
// Round() against 0, this is exact even when cancellation leaves a sum too
// small to represent.
func (a *Acc) IsZero() bool {
	if !a.used {
		return true
	}
	for i := a.lo; i <= a.hi; i++ {
		if a.limb[i] != 0 {
			return false
		}
	}
	return true
}
