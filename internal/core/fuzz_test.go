package core

import (
	"math"
	"reflect"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// FuzzSimulate decodes a byte string into an item list and checks the engine
// invariants hold for every policy: no error on valid input, cost ≥ span,
// every item placed exactly once, bin records consistent. For every policy
// that can be checkpointed it also snapshots a second run before event
// snapAt (modulo the run's length), restores the snapshot and requires the
// restored run to finish with the uninterrupted run's Result.
func FuzzSimulate(f *testing.F) {
	f.Add([]byte{10, 1, 5, 3, 0, 20, 2, 7, 9, 0x9E, 50, 10, 1, 1, 0xE0}, uint16(3))
	f.Add([]byte{0, 0, 0, 0}, uint16(0))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255}, uint16(65535))
	f.Fuzz(func(t *testing.T, data []byte, snapAt uint16) {
		l := decodeInstance(data)
		if l == nil {
			return
		}
		for _, p := range append(StandardPolicies(1), FragmentationAwarePolicies(1)...) {
			res, err := Simulate(l, p)
			if err != nil {
				t.Fatalf("%s: %v on %v", p.Name(), err, l.Items)
			}
			if res.Cost < res.Span-1e-9 {
				t.Fatalf("%s: cost %v < span %v", p.Name(), res.Cost, res.Span)
			}
			if len(res.Placements) != l.Len() {
				t.Fatalf("%s: %d placements for %d items", p.Name(), len(res.Placements), l.Len())
			}
			if len(res.Bins) != res.BinsOpened {
				t.Fatalf("%s: bin record mismatch", p.Name())
			}
			if CheckpointablePolicy(p) {
				// A fault-free run commits an arrival and a departure per item.
				restoreAt(t, l, p, int(snapAt)%(2*l.Len()+1), res)
			}
		}
	})
}

// restoreAt runs p over l to event k, snapshots the run, restores the
// snapshot into a fresh engine and requires it to finish with want.
func restoreAt(t *testing.T, l *item.List, p Policy, k int, want *Result) {
	t.Helper()
	e, err := NewEngine(l, p)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < k; i++ {
		if _, ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("%s: step %d: ok=%v err=%v", p.Name(), i, ok, err)
		}
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatalf("%s: Snapshot at event %d: %v", p.Name(), k, err)
	}
	q, err := NewPolicy(p.Name(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreEngine(l, q, s)
	if err != nil {
		t.Fatalf("%s: RestoreEngine at event %d: %v on %v", p.Name(), k, err, l.Items)
	}
	defer r.Close()
	got, err := r.run()
	if err != nil {
		t.Fatalf("%s: restored at event %d: %v", p.Name(), k, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: restored at event %d: result %s, uninterrupted %s", p.Name(), k, got, want)
	}
}

// FuzzSimulateFaulty decodes an item list plus a fault configuration from the
// byte string and differentially tests the fast engine against the naive
// faulty reference: identical Results (including failure accounting), item
// conservation, and structural bin invariants under crash/evict/retry and
// admission control.
func FuzzSimulateFaulty(f *testing.F) {
	f.Add([]byte{3, 9, 1, 2, 10, 1, 5, 3, 0, 20, 2, 7, 9, 0, 50, 10, 1, 1, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		seed := int64(data[0])
		mean := 1 + float64(data[1]%24)
		retryWait := float64(data[2]%8) / 2
		maxBins := int(data[3] % 5) // 0 = unbounded
		queue := data[3]&0x80 != 0
		l := decodeInstance(data[4:])
		if l == nil {
			return
		}
		opts := []Option{WithFaults(hashInj{seed: seed, mean: mean}, fixedRetry{wait: retryWait})}
		if maxBins > 0 {
			opts = append(opts, WithMaxBins(maxBins))
			if queue {
				opts = append(opts, WithAdmissionQueue(float64(data[1]%10)))
			}
		}
		for _, p := range append(StandardPolicies(seed), FragmentationAwarePolicies(seed)...) {
			res, err := Simulate(l, p, opts...)
			if err != nil {
				t.Fatalf("%s: %v on %v", p.Name(), err, l.Items)
			}
			ref, err := SimulateFaultyReference(l, p, opts...)
			if err != nil {
				t.Fatalf("%s: reference: %v on %v", p.Name(), err, l.Items)
			}
			faultyResultsEqual(t, p.Name(), res, ref)
			checkFaultStructure(t, p.Name(), res, maxBins)
		}
	})
}

// checkFaultStructure asserts the structural invariants any faulty run must
// satisfy: interval sanity per bin, placements inside their bin's lifetime,
// fleet cap respected, and conservation of items across terminal outcomes.
func checkFaultStructure(t *testing.T, label string, res *Result, maxBins int) {
	t.Helper()
	if len(res.Bins) != res.BinsOpened {
		t.Fatalf("%s: %d bin records for %d opened", label, len(res.Bins), res.BinsOpened)
	}
	byID := make(map[int]BinUsage, len(res.Bins))
	for i, b := range res.Bins {
		if b.ClosedAt < b.OpenedAt {
			t.Fatalf("%s: bin %d closed before it opened: %+v", label, b.BinID, b)
		}
		if i > 0 && res.Bins[i-1].BinID >= b.BinID {
			t.Fatalf("%s: bin records not ascending by ID", label)
		}
		if i > 0 && res.Bins[i-1].OpenedAt > b.OpenedAt {
			t.Fatalf("%s: bin %d opened before its predecessor", label, b.BinID)
		}
		byID[b.BinID] = b
	}
	for _, p := range res.Placements {
		b, ok := byID[p.BinID]
		if !ok {
			t.Fatalf("%s: placement into unknown bin %d", label, p.BinID)
		}
		if p.Time < b.OpenedAt || p.Time > b.ClosedAt {
			t.Fatalf("%s: placement at %v outside bin %d lifetime [%v,%v]",
				label, p.Time, p.BinID, b.OpenedAt, b.ClosedAt)
		}
	}
	if maxBins > 0 && res.MaxConcurrentBins > maxBins {
		t.Fatalf("%s: peak %d bins exceeds cap %d", label, res.MaxConcurrentBins, maxBins)
	}
	counts := map[Outcome]int{}
	for _, o := range res.Outcomes {
		counts[o]++
	}
	if got := counts[OutcomeServed] + res.ItemsLost + res.Rejected + res.TimedOut; got != res.Items {
		t.Fatalf("%s: conservation violated: %d terminal items of %d", label, got, res.Items)
	}
}

// decodeInstance maps fuzz bytes onto a small valid instance: groups of five
// bytes become (arrival, duration, size0, size1, binades) with all values
// scaled into range. A size byte gives k/100 for k in 1..100; the binades
// byte gives each dimension a nibble n that leaves its size alone below 8,
// scales it by 2^(-5(n-7)), down to 2^-35, from 8 to 14, and zeroes it at
// 15. Sizes then mix magnitudes whose exact sums span many accumulator
// limbs, some below 2^-30. Returns nil when the input is too short.
func decodeInstance(data []byte) *item.List {
	if len(data) < 5 {
		return nil
	}
	size := func(b, n byte) float64 {
		s := float64(1+b%100) / 100
		switch {
		case n == 15:
			return 0
		case n >= 8:
			return math.Ldexp(s, -5*int(n-7))
		}
		return s
	}
	l := item.NewList(2)
	for i := 0; i+4 < len(data) && l.Len() < 64; i += 5 {
		arrival := float64(data[i] % 32)
		duration := 1 + float64(data[i+1]%16)
		binades := data[i+4]
		l.Add(arrival, arrival+duration, vector.Of(size(data[i+2], binades&15), size(data[i+3], binades>>4)))
	}
	return l
}
