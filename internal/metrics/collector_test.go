package metrics

import (
	"sync"
	"testing"
	"time"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

func counterValue(t *testing.T, s Snapshot, name string) float64 {
	t.Helper()
	m, ok := s.Find(name)
	if !ok {
		t.Fatalf("metric %s missing from snapshot", name)
	}
	return m.Value
}

func TestCollectorMatchesResult(t *testing.T) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 400, Mu: 10, T: 200, B: 100}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.StandardPolicies(3) {
		col := NewCollector()
		res, err := core.Simulate(l, p, core.WithObserver(col))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		s := col.Snapshot()
		if got := counterValue(t, s, MetricItemsPlaced); got != float64(len(res.Placements)) {
			t.Errorf("%s: items placed = %g, want %d", p.Name(), got, len(res.Placements))
		}
		if got := counterValue(t, s, MetricBinsOpened); got != float64(res.BinsOpened) {
			t.Errorf("%s: bins opened = %g, want %d", p.Name(), got, res.BinsOpened)
		}
		// Every bin closes by the end of the sweep.
		if got := counterValue(t, s, MetricBinsClosed); got != float64(res.BinsOpened) {
			t.Errorf("%s: bins closed = %g, want %d", p.Name(), got, res.BinsOpened)
		}
		if got := counterValue(t, s, MetricOpenBins); got != 0 {
			t.Errorf("%s: open bins after drain = %g", p.Name(), got)
		}
		if got := counterValue(t, s, MetricOpenBinsPeak); got != float64(res.MaxConcurrentBins) {
			t.Errorf("%s: peak = %g, want %d", p.Name(), got, res.MaxConcurrentBins)
		}
		// The collector accrues t - OpenedAt per close in the same order the
		// engine does, so the float sums are bit-identical.
		if got := counterValue(t, s, MetricUsageTime); got != res.Cost {
			t.Errorf("%s: usage time = %g, want %g", p.Name(), got, res.Cost)
		}
		hist, ok := s.Find(MetricFitChecksPerSelect)
		if !ok {
			t.Fatal("fit-check histogram missing")
		}
		if hist.Count != uint64(len(res.Placements)) {
			t.Errorf("%s: %d Select observations, want %d", p.Name(), hist.Count, len(res.Placements))
		}
		if got := counterValue(t, s, MetricFitChecks); got != hist.Sum {
			t.Errorf("%s: fit-check counter %g != histogram sum %g", p.Name(), got, hist.Sum)
		}
	}
}

func TestCollectorFitChecksHandComputed(t *testing.T) {
	// First Fit on d=1: item sizes 0.6, 0.6, 0.3, 0.5 arriving in order,
	// all departing at 10. Linear-scan fit checks per Select: 0 (no open
	// bins), 1 (bin0 fails), 1 (bin0 fits), 2 (bin0 and bin1 fail).
	l := item.NewList(1)
	l.Add(0, 10, vector.Of(0.6))
	l.Add(1, 10, vector.Of(0.6))
	l.Add(2, 10, vector.Of(0.3))
	l.Add(3, 10, vector.Of(0.5))

	col := NewCollector()
	if _, err := core.Simulate(l, core.NewFirstFit(), core.WithObserver(col), core.WithLinearSelect()); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	if got := counterValue(t, s, MetricFitChecks); got != 4 {
		t.Errorf("linear fit checks = %g, want 4", got)
	}

	// Worst Fit scans the same items with 0, 1 (bin0 fails), 2 (both bins
	// fit; the argmin must see both) and 2 (both fail) checks.
	col = NewCollector()
	if _, err := core.Simulate(l, core.NewWorstFit(core.MaxLoad()), core.WithObserver(col), core.WithLinearSelect()); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, col.Snapshot(), MetricFitChecks); got != 5 {
		t.Errorf("linear Worst Fit fit checks = %g, want 5", got)
	}

	// Its default path scans too: the engine builds the bin index only once
	// a run's peak reaches hundreds of open bins (DESIGN.md §11), and this
	// one peaks at 2. The index's own count on these items is pinned in
	// core (TestIndexFitChecksHandComputed).
	col = NewCollector()
	if _, err := core.Simulate(l, core.NewWorstFit(core.MaxLoad()), core.WithObserver(col)); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, col.Snapshot(), MetricFitChecks); got != 5 {
		t.Errorf("default-path Worst Fit fit checks = %g, want 5", got)
	}

	// Best Fit at d = 2 scans on its default path, and the scan tests every
	// open bin: (0.6, 0.2) twice, then (0.3, 0.3) and (0.2, 0.6).
	// Checks per Select: 0 (no open bins), 1 (bin0 fails), 2 (both fit, the
	// argmax must see both; equal loads, so bin0 takes it at (0.9, 0.5)) and
	// 2 (bin0 fails, bin1 fits) — where First Fit would stop after 1 in the
	// third decision.
	l2 := item.NewList(2)
	l2.Add(0, 10, vector.Of(0.6, 0.2))
	l2.Add(1, 10, vector.Of(0.6, 0.2))
	l2.Add(2, 10, vector.Of(0.3, 0.3))
	l2.Add(3, 10, vector.Of(0.2, 0.6))
	col = NewCollector()
	res, err := core.Simulate(l2, core.NewBestFit(core.MaxLoad()), core.WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, col.Snapshot(), MetricFitChecks); got != 5 {
		t.Errorf("Best Fit d=2 fit checks = %g, want 5", got)
	}
	if got := []int{res.Placements[2].BinID, res.Placements[3].BinID}; got[0] != 0 || got[1] != 1 {
		t.Errorf("Best Fit d=2 placed items 2 and 3 into bins %v, want [0 1]", got)
	}
}

// sequencedClock advances a Manual clock by a fixed step on every reading,
// making placement durations deterministic through the engine.
type sequencedClock struct {
	m    Manual
	step time.Duration
}

func (c *sequencedClock) Now() time.Duration {
	c.m.Advance(c.step)
	return c.m.Now()
}

func TestCollectorPlacementTimingDeterministic(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 5, vector.Of(0.5))
	l.Add(1, 6, vector.Of(0.5))

	// Each placement reads the clock twice (BeforePack, AfterPack), so with
	// a 1ms step every placement lasts exactly 1ms.
	col := NewCollector(WithClock(&sequencedClock{step: time.Millisecond}))
	if _, err := core.Simulate(l, core.NewFirstFit(), core.WithObserver(col)); err != nil {
		t.Fatal(err)
	}
	hist, ok := col.Snapshot().Find(MetricPlacementSeconds)
	if !ok {
		t.Fatal("placement histogram missing")
	}
	if hist.Count != 2 {
		t.Fatalf("placement observations = %d, want 2", hist.Count)
	}
	if hist.Sum != 0.002 {
		t.Errorf("placement sum = %g s, want 0.002", hist.Sum)
	}
}

func TestCollectorSharedAcrossConcurrentRuns(t *testing.T) {
	l, err := workload.Uniform(workload.UniformConfig{D: 1, N: 200, Mu: 5, T: 100, B: 50}, 11)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.Simulate(l, core.NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}

	const runs = 8
	col := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := core.Simulate(l, core.NewFirstFit(), core.WithObserver(col)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	s := col.Snapshot()
	if got := counterValue(t, s, MetricItemsPlaced); got != float64(runs*len(single.Placements)) {
		t.Errorf("shared items placed = %g, want %d", got, runs*len(single.Placements))
	}
	if got := counterValue(t, s, MetricBinsOpened); got != float64(runs*single.BinsOpened) {
		t.Errorf("shared bins opened = %g, want %d", got, runs*single.BinsOpened)
	}
	if got := counterValue(t, s, MetricOpenBins); got != 0 {
		t.Errorf("open bins after all runs = %g", got)
	}
}
