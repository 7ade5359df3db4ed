package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

// resultsEqual compares the externally observable parts of two Results:
// cost, bin counts, placements, bin records and outcomes.
func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Cost != b.Cost {
		t.Errorf("%s: cost %v vs %v", label, a.Cost, b.Cost)
	}
	if a.BinsOpened != b.BinsOpened {
		t.Errorf("%s: bins %d vs %d", label, a.BinsOpened, b.BinsOpened)
	}
	if a.MaxConcurrentBins != b.MaxConcurrentBins {
		t.Errorf("%s: peak %d vs %d", label, a.MaxConcurrentBins, b.MaxConcurrentBins)
	}
	if len(a.Placements) != len(b.Placements) {
		t.Fatalf("%s: placements %d vs %d", label, len(a.Placements), len(b.Placements))
	}
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			t.Errorf("%s: placement %d: %+v vs %+v", label, i, a.Placements[i], b.Placements[i])
			return
		}
	}
	if len(a.Bins) != len(b.Bins) {
		t.Fatalf("%s: bin records %d vs %d", label, len(a.Bins), len(b.Bins))
	}
	for i := range a.Bins {
		if a.Bins[i] != b.Bins[i] {
			t.Errorf("%s: bin record %d: %+v vs %+v", label, i, a.Bins[i], b.Bins[i])
			return
		}
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("%s: outcomes of %d vs %d items, or they differ", label, len(a.Outcomes), len(b.Outcomes))
	}
}

// TestReferenceEngineAgreesOnHandCases: targeted scenarios with departures,
// ties and gaps.
func TestReferenceEngineAgreesOnHandCases(t *testing.T) {
	cases := [][][]float64{
		{{0, 5, 0.5}},
		{{0, 4, 0.6}, {1, 3, 0.6}},
		{{0, 2, 0.9}, {2, 4, 0.9}},              // half-open handoff
		{{0, 1, 0.5}, {10, 12, 0.5}},            // gap
		{{0, 1, 0.6}, {0, 1, 0.5}, {0, 1, 0.4}}, // simultaneous arrivals
		{{0, 100, 0.6}, {1, 100, 0.6}, {2, 3, 0.1}, {4, 5, 0.1}},
	}
	for ci, rows := range cases {
		l := list(t, 1, rows...)
		for _, mk := range []func() Policy{
			func() Policy { return NewFirstFit() },
			func() Policy { return NewNextFit() },
			func() Policy { return NewBestFit(MaxLoad()) },
			func() Policy { return NewWorstFit(MaxLoad()) },
			func() Policy { return NewLastFit() },
			func() Policy { return NewMoveToFront() },
		} {
			p := mk()
			fast := mustSimulate(t, l, p)
			ref, err := SimulateReference(l, p)
			if err != nil {
				t.Fatalf("case %d %s: %v", ci, p.Name(), err)
			}
			resultsEqual(t, p.Name(), fast, ref)
		}
	}
}

// TestReferenceEngineAgreesOnRandomInstances: full differential testing over
// random workloads and every deterministic policy. RandomFit is included:
// both engines drive the same seeded RNG through identical Select calls, so
// even it must agree.
func TestReferenceEngineAgreesOnRandomInstances(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		l := randomList(seed, 200, 2, 25)
		for _, p := range StandardPolicies(seed) {
			fast := mustSimulate(t, l, p)
			ref, err := SimulateReference(l, p)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", p.Name(), seed, err)
			}
			resultsEqual(t, p.Name(), fast, ref)
		}
	}
}

// TestReferenceEngineAgreesOnAdversarialShapes: the engines must agree on
// instances with heavy simultaneous-arrival structure (the adversarial
// regime).
func TestReferenceEngineAgreesProperty(t *testing.T) {
	f := func(seedRaw uint16, dRaw uint8) bool {
		d := int(dRaw%3) + 1
		l := randomList(int64(seedRaw), 60, d, 10)
		for _, p := range StandardPolicies(int64(seedRaw)) {
			fast, err := Simulate(l, p)
			if err != nil {
				return false
			}
			ref, err := SimulateReference(l, p)
			if err != nil {
				return false
			}
			if fast.Cost != ref.Cost || fast.BinsOpened != ref.BinsOpened {
				t.Logf("%s seed=%d: %v/%d vs %v/%d", p.Name(), seedRaw, fast.Cost, fast.BinsOpened, ref.Cost, ref.BinsOpened)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReferenceEngineValidation(t *testing.T) {
	if _, err := SimulateReference(list(t, 1), NewFirstFit()); err == nil {
		t.Error("empty list accepted")
	}
	l := list(t, 1, []float64{0, 2, 0.9}, []float64{1, 2, 0.9})
	if _, err := SimulateReference(l, badPolicy{NewFirstFit()}); err == nil {
		t.Error("unfit choice accepted")
	}
}
