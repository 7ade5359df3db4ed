package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLength(t *testing.T) {
	cases := []struct {
		iv   Interval
		want float64
	}{
		{New(0, 1), 1},
		{New(2, 2), 0},
		{New(3, 2), 0}, // inverted = empty
		{New(1.5, 4), 2.5},
	}
	for _, c := range cases {
		if got := c.iv.Length(); got != c.want {
			t.Errorf("Length(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestEmpty(t *testing.T) {
	if !New(1, 1).Empty() || !New(2, 1).Empty() {
		t.Error("degenerate intervals should be empty")
	}
	if New(1, 2).Empty() {
		t.Error("[1,2) should not be empty")
	}
}

func TestContains(t *testing.T) {
	iv := New(1, 2)
	if !iv.Contains(1) {
		t.Error("left endpoint should be contained (half-open)")
	}
	if iv.Contains(2) {
		t.Error("right endpoint should not be contained (half-open)")
	}
	if !iv.Contains(1.5) || iv.Contains(0.5) || iv.Contains(2.5) {
		t.Error("interior/exterior misclassified")
	}
}

func TestHull(t *testing.T) {
	got := New(0, 1).Hull(New(3, 4))
	if got != New(0, 4) {
		t.Errorf("Hull = %v, want [0,4)", got)
	}
	if got := New(0, 1).Hull(New(2, 2)); got != New(0, 1) {
		t.Errorf("Hull with empty = %v, want [0,1)", got)
	}
	if got := (Interval{}).Hull(New(1, 2)); got != New(1, 2) {
		t.Errorf("empty Hull = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := New(0.5, 2).String(); got != "[0.5, 2)" {
		t.Errorf("String = %q", got)
	}
}

func TestMerge(t *testing.T) {
	cases := []struct {
		name string
		in   Set
		want Set
	}{
		{"empty", Set{}, Set{}},
		{"single", Set{New(0, 1)}, Set{New(0, 1)}},
		{"disjoint sorted", Set{New(0, 1), New(2, 3)}, Set{New(0, 1), New(2, 3)}},
		{"disjoint unsorted", Set{New(2, 3), New(0, 1)}, Set{New(0, 1), New(2, 3)}},
		{"overlap", Set{New(0, 2), New(1, 3)}, Set{New(0, 3)}},
		{"abut", Set{New(0, 1), New(1, 2)}, Set{New(0, 2)}},
		{"nested", Set{New(0, 4), New(1, 2)}, Set{New(0, 4)}},
		{"with empties", Set{New(0, 1), New(5, 5), New(3, 2)}, Set{New(0, 1)}},
		{"chain", Set{New(0, 1), New(1, 2), New(2, 3), New(5, 6)}, Set{New(0, 3), New(5, 6)}},
	}
	for _, c := range cases {
		got := c.in.Merge()
		if len(got) != len(c.want) {
			t.Errorf("%s: Merge = %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: Merge[%d] = %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestMergeDoesNotMutate(t *testing.T) {
	in := Set{New(2, 3), New(0, 1)}
	_ = in.Merge()
	if in[0] != New(2, 3) || in[1] != New(0, 1) {
		t.Error("Merge mutated its receiver")
	}
}

func TestSpan(t *testing.T) {
	cases := []struct {
		in   Set
		want float64
	}{
		{Set{}, 0},
		{Set{New(0, 1)}, 1},
		{Set{New(0, 2), New(1, 3)}, 3},
		{Set{New(0, 1), New(2, 3)}, 2}, // gap doesn't count
		{Set{New(0, 10), New(1, 2), New(3, 4)}, 10},
	}
	for i, c := range cases {
		if got := c.in.Span(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: Span = %v, want %v", i, got, c.want)
		}
	}
}

func TestSetHull(t *testing.T) {
	s := Set{New(3, 4), New(0, 1)}
	if got := s.Hull(); got != New(0, 4) {
		t.Errorf("Hull = %v", got)
	}
}

func TestCovers(t *testing.T) {
	s := Set{New(0, 2), New(2, 5)}
	if !s.Covers(New(0, 5)) {
		t.Error("merged set should cover [0,5)")
	}
	if !s.Covers(New(1, 3)) {
		t.Error("should cover sub-interval")
	}
	if s.Covers(New(0, 6)) {
		t.Error("should not cover beyond Hi")
	}
	if !s.Covers(New(3, 3)) {
		t.Error("empty target is always covered")
	}
	gappy := Set{New(0, 1), New(2, 3)}
	if gappy.Covers(New(0, 3)) {
		t.Error("gappy set should not cover the hull")
	}
}

func TestSetContains(t *testing.T) {
	s := Set{New(0, 1), New(2, 3)}
	if !s.Contains(0.5) || s.Contains(1.5) || !s.Contains(2) || s.Contains(3) {
		t.Error("Set.Contains misclassified")
	}
}

// Property: Span is invariant under permutation and splitting of intervals.
func TestSpanInvariantUnderSplit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(nRaw uint8) bool {
		n := int(nRaw%10) + 1
		var s Set
		for i := 0; i < n; i++ {
			lo := r.Float64() * 10
			s = append(s, New(lo, lo+r.Float64()*5))
		}
		// Split each interval in half; span must not change.
		var split Set
		for _, iv := range s {
			mid := (iv.Lo + iv.Hi) / 2
			split = append(split, New(iv.Lo, mid), New(mid, iv.Hi))
		}
		return math.Abs(s.Span()-split.Span()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Span ≤ sum of lengths, and Span ≤ Hull length.
func TestSpanBounds(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(nRaw uint8) bool {
		n := int(nRaw%10) + 1
		var s Set
		sumLen := 0.0
		for i := 0; i < n; i++ {
			lo := r.Float64() * 10
			iv := New(lo, lo+r.Float64()*5)
			s = append(s, iv)
			sumLen += iv.Length()
		}
		sp := s.Span()
		return sp <= sumLen+1e-9 && sp <= s.Hull().Length()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: merged sets are sorted, disjoint and non-abutting.
func TestMergeNormalForm(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func(nRaw uint8) bool {
		n := int(nRaw % 12)
		var s Set
		for i := 0; i < n; i++ {
			lo := r.Float64() * 10
			s = append(s, New(lo, lo+r.Float64()*3))
		}
		m := s.Merge()
		for i := range m {
			if m[i].Empty() {
				return false
			}
			if i > 0 && m[i-1].Hi >= m[i].Lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerge(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	s := make(Set, 1000)
	for i := range s {
		lo := r.Float64() * 1000
		s[i] = New(lo, lo+r.Float64()*10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Merge()
	}
}
