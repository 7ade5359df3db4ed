package core

import (
	"math"
	"math/rand"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// shapeList builds a small list whose intervals exercise every case of the
// span fold: arrivals on a coarse decimal grid (ties), items that arrive
// exactly when an earlier one departs (touching intervals), long items that
// contain short ones (nesting), and gaps. Decimal endpoints are not dyadic,
// so summing two touching pieces usually rounds differently from measuring
// their union: a fold that failed to merge them would show in the last bit.
func shapeList(r *rand.Rand, n int) *item.List {
	l := item.NewList(1)
	for i := 0; i < n; i++ {
		a := float64(r.Intn(60)) * 0.1
		if i > 0 && r.Intn(3) == 0 {
			a = l.Items[r.Intn(i)].Departure // touch an earlier item's end
		}
		dur := float64(1+r.Intn(9)) * 0.1
		if r.Intn(5) == 0 {
			dur *= 13 // a long item that nests later ones
		}
		l.Add(a, a+dur, vector.Of(0.1+0.8*r.Float64()))
	}
	return l
}

// shapeLists returns the lists the span/μ tests run over: fixed touching,
// nested and single-item cases, then random ones.
func shapeLists() []*item.List {
	touching := item.NewList(1)
	touching.Add(0.1, 0.3, vector.Of(0.5))
	touching.Add(0.3, 0.7, vector.Of(0.5))
	touching.Add(0.7, 1.3, vector.Of(0.5))
	nested := item.NewList(1)
	nested.Add(0.1, 2.3, vector.Of(0.5))
	nested.Add(0.2, 0.7, vector.Of(0.5))
	nested.Add(0.7, 0.9, vector.Of(0.5))
	nested.Add(2.3, 2.6, vector.Of(0.5))
	single := item.NewList(1)
	single.Add(0.3, 1.1, vector.Of(0.5))
	lists := []*item.List{touching, nested, single}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		lists = append(lists, shapeList(r, 1+r.Intn(12)))
	}
	return lists
}

// sameBits reports whether a run's Span and Mu equal the list's under
// math.Float64bits.
func sameBits(t *testing.T, label string, res *Result, l *item.List) {
	t.Helper()
	if math.Float64bits(res.Span) != math.Float64bits(l.Span()) {
		t.Errorf("%s: Span %v (%#x), list %v (%#x)", label, res.Span, math.Float64bits(res.Span), l.Span(), math.Float64bits(l.Span()))
	}
	if math.Float64bits(res.Mu) != math.Float64bits(l.Mu()) {
		t.Errorf("%s: Mu %v, list %v", label, res.Mu, l.Mu())
	}
}

// TestSpanMuMatchListBitForBit pins the engine's arrival-order fold of
// span(R) and μ to item.List.Span/Mu, bit for bit, on static runs, on
// dynamic runs at Finish, and on dynamic runs restored from a mid-stream
// snapshot and then finished.
func TestSpanMuMatchListBitForBit(t *testing.T) {
	for i, l := range shapeLists() {
		sameBits(t, "static", mustSimulate(t, l, NewFirstFit()), l)

		stream := l.SortedByArrival()
		e, err := NewEngine(item.NewList(l.Dim), NewFirstFit(), WithDynamicArrivals())
		if err != nil {
			t.Fatal(err)
		}
		feedDynamic(t, e, stream)
		sameBits(t, "dynamic", drain(t, e), l)

		half := len(stream) / 2
		live, err := NewEngine(item.NewList(l.Dim), NewFirstFit(), WithDynamicArrivals())
		if err != nil {
			t.Fatal(err)
		}
		feedDynamic(t, live, stream[:half])
		snap, err := live.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		prefix := live.list.Clone()
		live.Close()
		re, err := RestoreEngine(prefix, NewFirstFit(), snap, WithDynamicArrivals())
		if err != nil {
			t.Fatalf("list %d: restore: %v", i, err)
		}
		feedDynamic(t, re, stream[half:])
		sameBits(t, "restored", drain(t, re), l)
	}
}
