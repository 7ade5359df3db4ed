package item

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dvbp/internal/vector"
)

func v(xs ...float64) vector.Vector { return vector.Of(xs...) }

func TestItemBasics(t *testing.T) {
	it := Item{ID: 1, Arrival: 2, Departure: 5, Size: v(0.5)}
	if got := it.Duration(); got != 3 {
		t.Errorf("Duration = %v, want 3", got)
	}
	iv := it.Interval()
	if iv.Lo != 2 || iv.Hi != 5 {
		t.Errorf("Interval = %v", iv)
	}
	if !it.ActiveAt(2) {
		t.Error("active at arrival (half-open)")
	}
	if it.ActiveAt(5) {
		t.Error("not active at departure (half-open)")
	}
	if !it.ActiveAt(4.9) || it.ActiveAt(1.9) {
		t.Error("interior/exterior misclassified")
	}
}

func TestItemValidate(t *testing.T) {
	good := Item{ID: 0, Arrival: 0, Departure: 1, Size: v(0.5, 0.5)}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid item rejected: %v", err)
	}
	good.ID = MaxID
	if err := good.Validate(2); err != nil {
		t.Errorf("item with ID MaxID rejected: %v", err)
	}
	cases := []struct {
		name string
		it   Item
		d    int
	}{
		{"nan arrival", Item{Arrival: math.NaN(), Departure: 1, Size: v(0.5)}, 1},
		{"negative arrival", Item{Arrival: -1, Departure: 1, Size: v(0.5)}, 1},
		{"zero duration", Item{Arrival: 1, Departure: 1, Size: v(0.5)}, 1},
		{"inverted", Item{Arrival: 2, Departure: 1, Size: v(0.5)}, 1},
		{"wrong dim", Item{Arrival: 0, Departure: 1, Size: v(0.5)}, 2},
		{"negative size", Item{Arrival: 0, Departure: 1, Size: v(-0.1)}, 1},
		{"oversize", Item{Arrival: 0, Departure: 1, Size: v(1.5)}, 1},
		{"negative id", Item{ID: -1, Arrival: 0, Departure: 1, Size: v(0.5)}, 1},
		{"id past MaxID", Item{ID: MaxID + 1, Arrival: 0, Departure: 1, Size: v(0.5)}, 1},
	}
	for _, c := range cases {
		if err := c.it.Validate(c.d); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestListAddAndValidate(t *testing.T) {
	l := NewList(2)
	l.Add(0, 1, v(0.5, 0.5))
	l.Add(0, 2, v(0.25, 0.75))
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if l.Items[0].ID == l.Items[1].ID {
		t.Error("Add should assign distinct IDs")
	}
	if l.Items[0].SeqNo >= l.Items[1].SeqNo {
		t.Error("SeqNo should increase with insertion order")
	}
}

func TestListValidateErrors(t *testing.T) {
	if err := NewList(0).Validate(); err == nil {
		t.Error("zero dim: want error")
	}
	if err := NewList(1).Validate(); err == nil {
		t.Error("empty list: want error")
	}
	l := NewList(1)
	l.Add(0, 1, v(0.5))
	l.Items = append(l.Items, Item{ID: 0, Arrival: 0, Departure: 1, Size: v(0.5)})
	if err := l.Validate(); err == nil {
		t.Error("duplicate id: want error")
	}
}

func TestNormalize(t *testing.T) {
	l := NewList(1)
	l.Items = []Item{
		{ID: 7, Arrival: 0, Departure: 1, Size: v(0.5)},
		{ID: 3, Arrival: 0, Departure: 1, Size: v(0.5)},
	}
	if err := l.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if l.Items[0].SeqNo != 0 || l.Items[1].SeqNo != 1 {
		t.Errorf("SeqNos = %d,%d", l.Items[0].SeqNo, l.Items[1].SeqNo)
	}
	l.Items[1].ID = 7
	if err := l.Normalize(); err == nil {
		t.Error("duplicate id: want error")
	}
}

func TestDurationStats(t *testing.T) {
	l := NewList(1)
	l.Add(0, 2, v(0.5))  // duration 2
	l.Add(1, 11, v(0.5)) // duration 10
	l.Add(3, 4, v(0.5))  // duration 1
	if got := l.MinDuration(); got != 1 {
		t.Errorf("MinDuration = %v", got)
	}
	if got := l.MaxDuration(); got != 10 {
		t.Errorf("MaxDuration = %v", got)
	}
	if got := l.Mu(); got != 10 {
		t.Errorf("Mu = %v", got)
	}
	empty := NewList(1)
	if empty.Mu() != 0 || empty.MinDuration() != 0 || empty.MaxDuration() != 0 {
		t.Error("empty list stats should be 0")
	}
}

func TestSpanAndHull(t *testing.T) {
	l := NewList(1)
	l.Add(0, 2, v(0.5))
	l.Add(5, 7, v(0.5)) // gap [2,5)
	if got := l.Span(); got != 4 {
		t.Errorf("Span = %v, want 4", got)
	}
	h := l.Hull()
	if h.Lo != 0 || h.Hi != 7 {
		t.Errorf("Hull = %v", h)
	}
}

func TestTotalSizeAndLoadAt(t *testing.T) {
	l := NewList(2)
	l.Add(0, 2, v(0.5, 0.1))
	l.Add(1, 3, v(0.2, 0.6))
	total := l.TotalSize()
	if !total.Equal(v(0.7, 0.7), 1e-12) {
		t.Errorf("TotalSize = %v", total)
	}
	if got := l.LoadAt(0.5); !got.Equal(v(0.5, 0.1), 1e-12) {
		t.Errorf("LoadAt(0.5) = %v", got)
	}
	if got := l.LoadAt(1.5); !got.Equal(v(0.7, 0.7), 1e-12) {
		t.Errorf("LoadAt(1.5) = %v", got)
	}
	if got := l.LoadAt(2.5); !got.Equal(v(0.2, 0.6), 1e-12) {
		t.Errorf("LoadAt(2.5) = %v", got)
	}
	if got := l.LoadAt(10); !got.IsZero() {
		t.Errorf("LoadAt(10) = %v", got)
	}
}

func TestActiveAt(t *testing.T) {
	l := NewList(1)
	l.Add(0, 2, v(0.5))
	l.Add(1, 3, v(0.5))
	got := l.ActiveAt(1.5)
	if len(got) != 2 {
		t.Fatalf("ActiveAt(1.5) = %d items", len(got))
	}
	if got[0].SeqNo > got[1].SeqNo {
		t.Error("ActiveAt not in SeqNo order")
	}
}

func TestSortedByArrival(t *testing.T) {
	l := NewList(1)
	l.Add(5, 6, v(0.1))
	l.Add(0, 1, v(0.2))
	l.Add(0, 2, v(0.3)) // same arrival as previous, later SeqNo
	s := l.SortedByArrival()
	if s[0].Arrival != 0 || s[1].Arrival != 0 || s[2].Arrival != 5 {
		t.Fatalf("sort order wrong: %v", s)
	}
	if s[0].SeqNo > s[1].SeqNo {
		t.Error("ties must break by SeqNo")
	}
	// Original untouched.
	if l.Items[0].Arrival != 5 {
		t.Error("SortedByArrival mutated receiver")
	}
}

func TestClone(t *testing.T) {
	l := NewList(1)
	l.Add(0, 1, v(0.5))
	c := l.Clone()
	c.Items[0].Size[0] = 0.9
	c.Items[0].Arrival = 42
	if l.Items[0].Size[0] != 0.5 || l.Items[0].Arrival != 0 {
		t.Error("Clone shares state with original")
	}
}

func TestScaleDurations(t *testing.T) {
	l := NewList(1)
	l.Add(1, 3, v(0.5)) // duration 2
	l.ScaleDurations(2.5)
	if got := l.Items[0].Departure; got != 6 {
		t.Errorf("Departure = %v, want 6", got)
	}
	if l.Items[0].Arrival != 1 {
		t.Error("ScaleDurations must not move arrivals")
	}
}

func TestTimeSpaceUtilization(t *testing.T) {
	l := NewList(2)
	l.Add(0, 2, v(0.5, 0.25)) // ‖s‖∞=0.5, ℓ=2 -> 1.0
	l.Add(0, 4, v(0.1, 0.3))  // ‖s‖∞=0.3, ℓ=4 -> 1.2
	if got := l.TimeSpaceUtilization(); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("TimeSpaceUtilization = %v, want 2.2", got)
	}
}

// Property: span ≤ hull length, and span ≥ max single duration.
func TestSpanProperties(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		l := NewList(1)
		for i := 0; i < n; i++ {
			a := r.Float64() * 50
			l.Add(a, a+0.1+r.Float64()*10, v(r.Float64()))
		}
		sp := l.Span()
		return sp <= l.Hull().Length()+1e-9 && sp >= l.MaxDuration()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LoadAt(t) summed over sampled times is consistent with activity:
// each component of LoadAt is ≤ TotalSize's component.
func TestLoadAtBounded(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func(nRaw uint8, tRaw uint16) bool {
		n := int(nRaw%20) + 1
		l := NewList(2)
		for i := 0; i < n; i++ {
			a := r.Float64() * 50
			l.Add(a, a+0.1+r.Float64()*10, v(r.Float64(), r.Float64()))
		}
		tt := float64(tRaw) / 1000 * 60
		load := l.LoadAt(tt)
		total := l.TotalSize()
		for j := range load {
			if load[j] > total[j]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
