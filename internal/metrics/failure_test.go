package metrics

import (
	"testing"
	"time"

	"dvbp/internal/core"
	"dvbp/internal/faults"
	"dvbp/internal/workload"
)

// TestCollectorMatchesResultUnderFaults: every failure-path series must agree
// exactly with the engine's own Result accounting — counters integer-exact,
// the two simulated-time gauges bit-identical (same accumulation order).
func TestCollectorMatchesResultUnderFaults(t *testing.T) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 400, Mu: 10, T: 200, B: 100}, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{
		Injector:   faults.MTBF{Mean: 15, Seed: 4},
		Retry:      faults.Backoff{Base: 0.5, Cap: 4},
		MaxServers: 12, Queue: true, QueueDeadline: 3,
	}
	for _, p := range core.StandardPolicies(3) {
		col := NewCollector()
		opts := append(plan.Options(), core.WithObserver(col))
		res, err := core.Simulate(l, p, opts...)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Crashes == 0 || res.Evictions == 0 {
			t.Fatalf("%s: fault paths not exercised (%s)", p.Name(), res)
		}
		s := col.Snapshot()
		for name, want := range map[string]float64{
			MetricBinsCrashed:   float64(res.Crashes),
			MetricItemsEvicted:  float64(res.Evictions),
			MetricItemsRetried:  float64(res.Retries),
			MetricItemsLost:     float64(res.ItemsLost),
			MetricItemsRejected: float64(res.Rejected),
			MetricItemsTimedOut: float64(res.TimedOut),
			MetricItemsDequeued: float64(res.QueuedPlaced),
			MetricQueueDelay:    res.QueueDelay,
			MetricLostUsage:     res.LostUsageTime,
			MetricItemsPlaced:   float64(len(res.Placements)),
			MetricBinsOpened:    float64(res.BinsOpened),
			MetricBinsClosed:    float64(res.BinsOpened),
			MetricUsageTime:     res.Cost,
			MetricOpenBins:      0,
		} {
			if got := counterValue(t, s, name); got != want {
				t.Errorf("%s: %s = %g, want %g", p.Name(), name, got, want)
			}
		}
		// Queued dispatches either come back out or expire.
		queued := counterValue(t, s, MetricItemsQueued)
		if deq := float64(res.QueuedPlaced + res.TimedOut); queued < deq {
			t.Errorf("%s: queued %g < dequeued+expired %g", p.Name(), queued, deq)
		}
	}
}

// TestCollectorTimesEachDispatchUnderAdmissionControl runs the engine with
// crashes, a capped fleet and an admission queue, so dispatches are queued,
// retried from the queue, timed out and rejected between placements. The
// clock advances one second per reading and a placement reads it twice
// (BeforePack, AfterPack), so a latency timed from the dispatch's own
// BeforePack is exactly one second, and one timed from an earlier dispatch
// is at least two. Every placement must be observed once, at one second,
// whether the collector is attached directly or through a run view.
func TestCollectorTimesEachDispatchUnderAdmissionControl(t *testing.T) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 300, Mu: 8, T: 150, B: 100}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, scoped := range []bool{false, true} {
		col := NewCollector(WithClock(&sequencedClock{step: time.Second}))
		var obs core.Observer = col
		if scoped {
			obs = col.ForRun()
		}
		res, err := core.Simulate(l, core.NewFirstFit(),
			core.WithFaults(faults.MTBF{Mean: 10, Seed: 2}, faults.Fixed{Wait: 1}),
			core.WithMaxBins(6), core.WithAdmissionQueue(2),
			core.WithObserver(obs))
		if err != nil {
			t.Fatal(err)
		}
		s := col.Snapshot()
		if res.Rejected+res.TimedOut == 0 || res.Evictions == 0 || counterValue(t, s, MetricItemsQueued) == 0 {
			t.Fatalf("admission and crash paths not exercised: %s", res)
		}
		hist, ok := s.Find(MetricPlacementSeconds)
		if !ok {
			t.Fatal("placement histogram missing")
		}
		// Each latency is at least one step, so a sum equal to the count
		// means every one is exactly one step.
		if n := len(res.Placements); hist.Count != uint64(n) || hist.Sum != float64(n) {
			t.Errorf("ForRun=%v: %d placements observed, %g s in all; want %d placements of 1 s each",
				scoped, hist.Count, hist.Sum, n)
		}
	}
}
