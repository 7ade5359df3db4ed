package metrics

import (
	"sync"
	"testing"
	"time"

	"dvbp/internal/core"
)

// TestForRunIsolatesPlacementMatching drives two run views through
// interleaved placements that carry IDENTICAL (ID, SeqNo) pairs — exactly
// what two concurrent simulations of different instances produce. With a
// shared start time the AfterPack of run A would be timed from the
// BeforePack of run B, fabricating latencies; per-run views must keep the
// pairs exact.
func TestForRunIsolatesPlacementMatching(t *testing.T) {
	clock := &Manual{}
	col := NewCollector(WithClock(clock))
	a := col.ForRun()
	b := col.ForRun()

	req := core.Request{ID: 7, SeqNo: 0} // same key in both runs

	// Interleave: A starts at t=0, B starts at t=10ms; B finishes at t=11ms
	// (1ms latency), A finishes at t=30ms (30ms latency). Cross-pairing
	// would instead record 11ms and 20ms.
	a.BeforePack(req, nil)
	clock.Advance(10 * time.Millisecond)
	b.BeforePack(req, nil)
	clock.Advance(1 * time.Millisecond)
	b.AfterPack(req, nil, false)
	clock.Advance(19 * time.Millisecond)
	a.AfterPack(req, nil, false)

	m, ok := col.Snapshot().Find(MetricPlacementSeconds)
	if !ok {
		t.Fatal("placement histogram missing")
	}
	if m.Count != 2 {
		t.Fatalf("placement count = %d, want 2", m.Count)
	}
	if want := 0.001 + 0.030; m.Sum < want-1e-9 || m.Sum > want+1e-9 {
		t.Errorf("placement latency sum = %v, want %v (cross-paired timestamps?)", m.Sum, want)
	}
}

// TestForRunSharedGaugeAndPeak verifies that run views feed the same
// open-bin gauge and that the high-water mark reflects the CONCURRENT
// population across runs, not any single run's.
func TestForRunSharedGaugeAndPeak(t *testing.T) {
	col := NewCollector(WithClock(&Manual{}))
	a := col.ForRun()
	b := col.ForRun()

	open := func(o core.Observer, id int) {
		req := core.Request{ID: id}
		o.BeforePack(req, nil)
		o.AfterPack(req, nil, true)
	}
	open(a, 1)
	open(a, 2)
	open(b, 1) // ids may collide across runs; bins are distinct
	open(b, 2)
	b.BinClosed(&core.Bin{}, 1)
	open(a, 3)

	snap := col.Snapshot()
	if m, _ := snap.Find(MetricOpenBins); m.Value != 4 {
		t.Errorf("open bins = %v, want 4", m.Value)
	}
	if m, _ := snap.Find(MetricOpenBinsPeak); m.Value != 4 {
		t.Errorf("open-bin peak = %v, want 4", m.Value)
	}
	if m, _ := snap.Find(MetricBinsOpened); m.Value != 5 {
		t.Errorf("bins opened = %v, want 5", m.Value)
	}
}

// TestForRunConcurrentStress hammers one collector through many views at
// once; run under -race this pins the freedom from shared mutable state, and
// the counter totals must come out exact.
func TestForRunConcurrentStress(t *testing.T) {
	col := NewCollector()
	const runs, placements = 16, 200

	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := col.ForRun()
			for i := 0; i < placements; i++ {
				req := core.Request{ID: i, SeqNo: i}
				v.BeforePack(req, nil)
				v.AfterPack(req, nil, true)
				v.BinClosed(&core.Bin{}, 1)
			}
		}()
	}
	wg.Wait()

	snap := col.Snapshot()
	if m, _ := snap.Find(MetricItemsPlaced); m.Value != runs*placements {
		t.Errorf("items placed = %v, want %d", m.Value, runs*placements)
	}
	if m, _ := snap.Find(MetricBinsOpened); m.Value != runs*placements {
		t.Errorf("bins opened = %v, want %d", m.Value, runs*placements)
	}
	if m, _ := snap.Find(MetricOpenBins); m.Value != 0 {
		t.Errorf("open bins = %v, want 0 after all closed", m.Value)
	}
	if m, _ := snap.Find(MetricPlacementSeconds); m.Count != runs*placements {
		t.Errorf("placement observations = %d, want %d", m.Count, runs*placements)
	}
	peak, _ := snap.Find(MetricOpenBinsPeak)
	if peak.Value < 1 || peak.Value > runs {
		t.Errorf("open-bin peak = %v, want within [1, %d]", peak.Value, runs)
	}
}
