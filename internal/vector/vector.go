package vector

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Eps is the tolerance used by capacity comparisons. Workload generators
// produce sizes that are small integers divided by a bin capacity B, so exact
// arithmetic would work in theory; in practice repeated float64 additions and
// subtractions accumulate one-ulp errors, and a strict `<= 1` check could
// spuriously reject an item that exactly fills a bin. Eps is far below the
// resolution of any supported workload (minimum size step is 1/B with
// B ≤ 10^6) and far above accumulated rounding error for realistic bin
// populations.
const Eps = 1e-9

// Vector is a point in R^d with non-negative components. The zero-length
// vector is valid and behaves as a 0-dimensional vector.
type Vector []float64

// New returns a zero vector of dimension d. It panics if d is negative.
func New(d int) Vector {
	if d < 0 {
		panic("vector: negative dimension")
	}
	return make(Vector, d)
}

// Uniform returns a d-dimensional vector with every component equal to v.
func Uniform(d int, v float64) Vector {
	u := New(d)
	for i := range u {
		u[i] = v
	}
	return u
}

// Unit returns a d-dimensional vector with component i set to v and all other
// components zero. It panics if i is out of range.
func Unit(d, i int, v float64) Vector {
	u := New(d)
	u[i] = v
	return u
}

// Of returns a vector with the given components.
func Of(vs ...float64) Vector {
	u := make(Vector, len(vs))
	copy(u, vs)
	return u
}

// Dim returns the dimension of v.
func (v Vector) Dim() int { return len(v) }

// Clone returns a copy of v that shares no storage with it.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Add returns v + u as a new vector. It panics if dimensions differ.
func (v Vector) Add(u Vector) Vector {
	v.mustMatch(u)
	w := make(Vector, len(v))
	for i := range v {
		w[i] = v[i] + u[i]
	}
	return w
}

// Sub returns v - u as a new vector. It panics if dimensions differ.
// Components are clamped at zero to absorb floating-point underflow when an
// item's size is removed from a bin load it was previously added to.
func (v Vector) Sub(u Vector) Vector {
	v.mustMatch(u)
	w := make(Vector, len(v))
	for i := range v {
		w[i] = v[i] - u[i]
		if w[i] < 0 {
			w[i] = 0
		}
	}
	return w
}

// AddInPlace sets v = v + u. It panics if dimensions differ.
func (v Vector) AddInPlace(u Vector) {
	v.mustMatch(u)
	for i := range v {
		v[i] += u[i]
	}
}

// SubInPlace sets v = v - u, clamping components at zero (see Sub).
// It panics if dimensions differ.
func (v Vector) SubInPlace(u Vector) {
	v.mustMatch(u)
	for i := range v {
		v[i] -= u[i]
		if v[i] < 0 {
			v[i] = 0
		}
	}
}

// MaxNorm returns the L∞ norm max_j v_j. Section 2 of the paper writes this
// as ‖v‖∞; it drives capacity checks and the Lemma 1 bounds. The norm of the
// 0-dimensional vector is 0.
func (v Vector) MaxNorm() float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// SumNorm returns the L1 norm Σ_j v_j (used by the "sum of loads" Best Fit
// variant).
func (v Vector) SumNorm() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// PNorm returns the Lp norm (Σ_j v_j^p)^(1/p) for p ≥ 1. PNorm(math.Inf(1))
// returns the L∞ norm. It panics if p < 1.
func (v Vector) PNorm(p float64) float64 {
	if math.IsInf(p, 1) {
		return v.MaxNorm()
	}
	if p < 1 {
		panic("vector: PNorm requires p >= 1")
	}
	if p == 1 {
		return v.SumNorm()
	}
	s := 0.0
	for _, x := range v {
		s += math.Pow(x, p)
	}
	return math.Pow(s, 1/p)
}

// FitsWithin reports whether v + u stays within the unit capacity 1^d in
// every dimension, up to Eps. This is the bin feasibility test: an item of
// size u fits in a bin of load v iff v.FitsWithin(u). It panics if dimensions
// differ.
func (v Vector) FitsWithin(u Vector) bool {
	v.mustMatch(u)
	for i := range v {
		if v[i]+u[i] > 1+Eps {
			return false
		}
	}
	return true
}

// LeqCapacity reports whether every component of v is at most 1 (+Eps): i.e.
// v alone is a feasible bin load.
func (v Vector) LeqCapacity() bool {
	for _, x := range v {
		if x > 1+Eps {
			return false
		}
	}
	return true
}

// Equal reports whether v and u have the same dimension and components within
// tol of each other.
func (v Vector) Equal(u Vector, tol float64) bool {
	if len(v) != len(u) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-u[i]) > tol {
			return false
		}
	}
	return true
}

// IsZero reports whether every component is exactly zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// NonNegative reports whether every component is ≥ 0. Item sizes must be
// non-negative; validation uses this.
func (v Vector) NonNegative() bool {
	for _, x := range v {
		if x < 0 || math.IsNaN(x) {
			return false
		}
	}
	return true
}

// Max returns the component-wise maximum of v and u as a new vector.
// It panics if dimensions differ.
func (v Vector) Max(u Vector) Vector {
	v.mustMatch(u)
	w := make(Vector, len(v))
	for i := range v {
		w[i] = math.Max(v[i], u[i])
	}
	return w
}

// Sum returns the component-wise sum of the given vectors. All vectors must
// share one dimension; Sum of no vectors is the 0-dimensional zero vector.
func Sum(vs ...Vector) Vector {
	if len(vs) == 0 {
		return Vector{}
	}
	s := vs[0].Clone()
	for _, v := range vs[1:] {
		s.AddInPlace(v)
	}
	return s
}

// String renders the vector as "[v0 v1 ...]" with compact float formatting.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	b.WriteByte(']')
	return b.String()
}

// Parse parses the String format (brackets optional, space- or
// comma-separated components).
func Parse(s string) (Vector, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "[")
	s = strings.TrimSuffix(s, "]")
	s = strings.ReplaceAll(s, ",", " ")
	fields := strings.Fields(s)
	v := make(Vector, 0, len(fields))
	for _, f := range fields {
		x, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("vector: parse %q: %w", f, err)
		}
		v = append(v, x)
	}
	if len(v) == 0 {
		return nil, errors.New("vector: empty input")
	}
	return v, nil
}

func (v Vector) mustMatch(u Vector) {
	if len(v) != len(u) {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(v), len(u)))
	}
}
