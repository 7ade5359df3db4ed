package core

import (
	"math"
	"math/rand"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

func v(xs ...float64) vector.Vector { return vector.Of(xs...) }

// list builds an item list from (arrival, departure, size...) triples.
func list(t *testing.T, d int, rows ...[]float64) *item.List {
	t.Helper()
	l := item.NewList(d)
	for _, r := range rows {
		if len(r) != 2+d {
			t.Fatalf("row %v has wrong arity for d=%d", r, d)
		}
		l.Add(r[0], r[1], vector.Of(r[2:]...))
	}
	return l
}

func mustSimulate(t *testing.T, l *item.List, p Policy, opts ...Option) *Result {
	t.Helper()
	res, err := Simulate(l, p, opts...)
	if err != nil {
		t.Fatalf("Simulate(%s): %v", p.Name(), err)
	}
	return res
}

func TestSimulateSingleItem(t *testing.T) {
	l := list(t, 1, []float64{0, 5, 0.5})
	res := mustSimulate(t, l, NewFirstFit())
	if res.BinsOpened != 1 {
		t.Errorf("BinsOpened = %d, want 1", res.BinsOpened)
	}
	if res.Cost != 5 {
		t.Errorf("Cost = %v, want 5", res.Cost)
	}
	if res.Span != 5 {
		t.Errorf("Span = %v, want 5", res.Span)
	}
	if len(res.Bins) != 1 || res.Bins[0].OpenedAt != 0 || res.Bins[0].ClosedAt != 5 {
		t.Errorf("Bins = %+v", res.Bins)
	}
}

func TestSimulateTwoItemsShareBin(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 4, 0.5},
		[]float64{1, 3, 0.5},
	)
	res := mustSimulate(t, l, NewFirstFit())
	if res.BinsOpened != 1 {
		t.Fatalf("BinsOpened = %d, want 1", res.BinsOpened)
	}
	if res.Cost != 4 {
		t.Errorf("Cost = %v, want 4", res.Cost)
	}
}

func TestSimulateOverflowOpensSecondBin(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 4, 0.6},
		[]float64{1, 3, 0.6},
	)
	res := mustSimulate(t, l, NewFirstFit())
	if res.BinsOpened != 2 {
		t.Fatalf("BinsOpened = %d, want 2", res.BinsOpened)
	}
	// Bin 0: [0,4), bin 1: [1,3) => cost 4+2=6.
	if res.Cost != 6 {
		t.Errorf("Cost = %v, want 6", res.Cost)
	}
	if res.MaxConcurrentBins != 2 {
		t.Errorf("MaxConcurrentBins = %d, want 2", res.MaxConcurrentBins)
	}
}

func TestHalfOpenIntervalsFreeCapacityAtDeparture(t *testing.T) {
	// Item 0 occupies [0,2); item 1 arrives exactly at t=2 and must reuse the
	// capacity — but bin 0 closed at t=2, so a NEW bin opens (closed bins are
	// never reused).
	l := list(t, 1,
		[]float64{0, 2, 0.9},
		[]float64{2, 4, 0.9},
	)
	res := mustSimulate(t, l, NewFirstFit())
	if res.BinsOpened != 2 {
		t.Fatalf("BinsOpened = %d, want 2 (closed bin must not be reused)", res.BinsOpened)
	}
	if res.Cost != 4 {
		t.Errorf("Cost = %v, want 4", res.Cost)
	}
}

func TestDepartureBeforeArrivalSameBinStaysOpen(t *testing.T) {
	// Bin stays open because item 1 keeps it active; item 2 arrives at the
	// instant item 0 departs and fits in the SAME bin.
	l := list(t, 1,
		[]float64{0, 2, 0.9},
		[]float64{0, 5, 0.1},
		[]float64{2, 4, 0.9},
	)
	res := mustSimulate(t, l, NewFirstFit())
	if res.BinsOpened != 1 {
		t.Fatalf("BinsOpened = %d, want 1", res.BinsOpened)
	}
	if res.Cost != 5 {
		t.Errorf("Cost = %v, want 5", res.Cost)
	}
}

func TestSimultaneousArrivalsPackInListOrder(t *testing.T) {
	// Both arrive at t=0. List order: big then small. First Fit packs big
	// into bin 0; small fits bin 0 too.
	l := list(t, 1,
		[]float64{0, 1, 0.7},
		[]float64{0, 1, 0.3},
	)
	res := mustSimulate(t, l, NewFirstFit())
	if res.BinsOpened != 1 {
		t.Fatalf("BinsOpened = %d, want 1", res.BinsOpened)
	}
	// Reversed order: small then big - big doesn't fit with small... 0.3+0.7=1.0 fits exactly.
	// Use sizes that only work one way.
	l2 := list(t, 1,
		[]float64{0, 1, 0.6},
		[]float64{0, 1, 0.5},
	)
	res2 := mustSimulate(t, l2, NewFirstFit())
	if res2.BinsOpened != 2 {
		t.Fatalf("BinsOpened = %d, want 2", res2.BinsOpened)
	}
	if res2.Placements[0].ItemID != 0 {
		t.Errorf("first placement = item %d, want 0 (list order)", res2.Placements[0].ItemID)
	}
}

func TestMultiDimensionalFeasibility(t *testing.T) {
	// Items conflict only in dimension 2.
	l := list(t, 2,
		[]float64{0, 2, 0.1, 0.9},
		[]float64{0, 2, 0.1, 0.9},
	)
	res := mustSimulate(t, l, NewFirstFit())
	if res.BinsOpened != 2 {
		t.Fatalf("BinsOpened = %d, want 2 (dim-2 conflict)", res.BinsOpened)
	}
}

func TestGapReopensNewBin(t *testing.T) {
	// Two disjoint activity periods: cost counts only active time.
	l := list(t, 1,
		[]float64{0, 1, 0.5},
		[]float64{10, 12, 0.5},
	)
	res := mustSimulate(t, l, NewFirstFit())
	if res.BinsOpened != 2 {
		t.Fatalf("BinsOpened = %d, want 2", res.BinsOpened)
	}
	if res.Cost != 3 {
		t.Errorf("Cost = %v, want 3", res.Cost)
	}
	if res.Span != 3 {
		t.Errorf("Span = %v, want 3", res.Span)
	}
}

func TestInvalidInputRejected(t *testing.T) {
	if _, err := Simulate(item.NewList(1), NewFirstFit()); err == nil {
		t.Error("empty list: want error")
	}
	l := item.NewList(1)
	l.Add(0, 1, v(1.5)) // oversize
	if _, err := Simulate(l, NewFirstFit()); err == nil {
		t.Error("oversize item: want error")
	}
}

// badPolicy returns a bin that does not fit, to exercise engine defences.
type badPolicy struct{ *FirstFit }

func (badPolicy) Name() string { return "Bad" }
func (badPolicy) Select(req Request, open []*Bin) *Bin {
	if len(open) > 0 {
		return open[0] // regardless of fit
	}
	return nil
}

func TestEngineRejectsUnfitChoice(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 2, 0.9},
		[]float64{1, 2, 0.9},
	)
	if _, err := Simulate(l, badPolicy{NewFirstFit()}); err == nil {
		t.Error("policy returning unfit bin: want error")
	}
}

// foreignPolicy returns a bin the engine doesn't know.
type foreignPolicy struct{ *FirstFit }

func (foreignPolicy) Name() string { return "Foreign" }
func (foreignPolicy) Select(req Request, open []*Bin) *Bin {
	return newBin(999, req.Size.Dim(), 0, nil, nil)
}

func TestEngineRejectsForeignBin(t *testing.T) {
	l := list(t, 1, []float64{0, 2, 0.5})
	if _, err := Simulate(l, foreignPolicy{NewFirstFit()}); err == nil {
		t.Error("policy returning foreign bin: want error")
	}
}

func TestClairvoyanceFlag(t *testing.T) {
	l := list(t, 1, []float64{0, 7, 0.5})
	var sawDep bool
	obs := &funcObserver{before: func(req Request, open []*Bin) {
		sawDep = req.HasDeparture && req.Departure == 7
	}}
	mustSimulate(t, l, NewFirstFit(), WithObserver(obs), WithClairvoyance())
	if !sawDep {
		t.Error("WithClairvoyance should expose departures")
	}
	mustSimulate(t, l, NewFirstFit(), WithObserver(&funcObserver{before: func(req Request, open []*Bin) {
		if req.HasDeparture {
			t.Error("non-clairvoyant run leaked departure")
		}
	}}))
}

type funcObserver struct {
	BaseObserver
	before func(Request, []*Bin)
}

func (f *funcObserver) BeforePack(req Request, open []*Bin) {
	if f.before != nil {
		f.before(req, open)
	}
}

func TestResultHelpers(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 2, 0.6},
		[]float64{0, 2, 0.6},
	)
	res := mustSimulate(t, l, NewFirstFit())
	p, ok := res.PlacementOf(1)
	if !ok || p.BinID != 1 {
		t.Errorf("PlacementOf(1) = %+v ok=%v", p, ok)
	}
	if _, ok := res.PlacementOf(99); ok {
		t.Error("PlacementOf(99) should be !ok")
	}
	if res.String() == "" {
		t.Error("String empty")
	}
}

// randomList builds a reproducible random instance.
func randomList(seed int64, n, d int, maxDur float64) *item.List {
	r := rand.New(rand.NewSource(seed))
	l := item.NewList(d)
	for i := 0; i < n; i++ {
		a := math.Floor(r.Float64() * 100)
		dur := 1 + math.Floor(r.Float64()*maxDur)
		size := vector.New(d)
		for j := range size {
			size[j] = (1 + math.Floor(r.Float64()*100)) / 100
		}
		l.Add(a, a+dur, size)
	}
	return l
}

// TestDeterminism: same inputs, same policy instance reused -> identical results.
func TestDeterminism(t *testing.T) {
	for _, mk := range []func() Policy{
		func() Policy { return NewFirstFit() },
		func() Policy { return NewNextFit() },
		func() Policy { return NewBestFit(MaxLoad()) },
		func() Policy { return NewWorstFit(MaxLoad()) },
		func() Policy { return NewLastFit() },
		func() Policy { return NewRandomFit(42) },
		func() Policy { return NewMoveToFront() },
	} {
		p := mk()
		l := randomList(99, 200, 2, 10)
		r1 := mustSimulate(t, l, p)
		r2 := mustSimulate(t, l, p) // reuse: Reset must restore state
		if r1.Cost != r2.Cost || r1.BinsOpened != r2.BinsOpened {
			t.Errorf("%s: non-deterministic: cost %v vs %v, bins %d vs %d",
				p.Name(), r1.Cost, r2.Cost, r1.BinsOpened, r2.BinsOpened)
		}
		for i := range r1.Placements {
			if r1.Placements[i] != r2.Placements[i] {
				t.Errorf("%s: placement %d differs", p.Name(), i)
				break
			}
		}
	}
}

// TestCostEqualsBinUsageSum: Cost must equal the sum of per-bin usages, and
// every placement must refer to a recorded bin.
func TestCostEqualsBinUsageSum(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		l := randomList(seed, 300, 3, 20)
		for _, p := range StandardPolicies(seed) {
			res := mustSimulate(t, l, p)
			sum := 0.0
			bins := make(map[int]bool)
			for _, b := range res.Bins {
				sum += b.Usage()
				bins[b.BinID] = true
			}
			if math.Abs(sum-res.Cost) > 1e-9 {
				t.Errorf("%s seed=%d: cost %v != Σusage %v", p.Name(), seed, res.Cost, sum)
			}
			if len(res.Bins) != res.BinsOpened {
				t.Errorf("%s seed=%d: %d bin records, %d opened", p.Name(), seed, len(res.Bins), res.BinsOpened)
			}
			for _, pl := range res.Placements {
				if !bins[pl.BinID] {
					t.Errorf("%s seed=%d: placement into unrecorded bin %d", p.Name(), seed, pl.BinID)
				}
			}
			if len(res.Placements) != l.Len() {
				t.Errorf("%s seed=%d: %d placements, want %d", p.Name(), seed, len(res.Placements), l.Len())
			}
		}
	}
}

// TestCostAtLeastSpan: every algorithm's cost is at least span(R)
// (Lemma 1(iii) lower-bounds OPT ≤ cost).
func TestCostAtLeastSpan(t *testing.T) {
	for seed := int64(10); seed < 15; seed++ {
		l := randomList(seed, 200, 2, 50)
		for _, p := range StandardPolicies(seed) {
			res := mustSimulate(t, l, p)
			if res.Cost < res.Span-1e-9 {
				t.Errorf("%s seed=%d: cost %v < span %v", p.Name(), seed, res.Cost, res.Span)
			}
		}
	}
}

func BenchmarkSimulateFirstFit(b *testing.B) {
	l := randomList(1, 1000, 2, 100)
	p := NewFirstFit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(l, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateMoveToFront(b *testing.B) {
	l := randomList(1, 1000, 2, 100)
	p := NewMoveToFront()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(l, p); err != nil {
			b.Fatal(err)
		}
	}
}
