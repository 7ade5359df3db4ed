package core

import (
	"fmt"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// churnInstance builds the bin-churn worst case: n full-bin items arriving
// together, so n bins are simultaneously open, then departing in reverse
// opening order, so every close used to scan the whole open list. Before
// closeBinAt tracked bin indices, Simulate was Θ(n²) on this family; it is
// now linear in the number of closings, which doubling n in the benchmark
// makes visible (quadratic close cost would quadruple ns/op per doubling).
func churnInstance(n int) *item.List {
	l := item.NewList(1)
	for i := 0; i < n; i++ {
		// Item i departs at 2 + (n-i)·1e-6: the last-opened bin closes
		// first, the worst case for a front-to-back scan.
		l.Add(0, 2+float64(n-i)*1e-6, vector.Of(1.0))
	}
	return l
}

// BenchmarkBinChurnClose makes cost-only runs over one Instance, so from the
// second run on every bin reopens one an earlier run handed on, and what a
// run allocates is its scaffolding: the open-bin slice, the bin map and the
// event queue.
func BenchmarkBinChurnClose(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		in, err := NewInstance(churnInstance(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := NewNextFit() // O(1) Select, isolating close cost
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := in.Simulate(p, WithHistory(nil))
				if err != nil {
					b.Fatal(err)
				}
				if res.BinsOpened != n {
					b.Fatalf("bins opened = %d, want %d", res.BinsOpened, n)
				}
			}
		})
	}
}

// churnHotPathInstance builds the load-accounting worst case: bins full of
// long-lived anchor items plus a long tail of short-lived churn items, so
// every churn arrival and departure hits a bin holding k active items.
//
// Layout: `bins` bins are each anchored by k items of per-dimension size
// (1-1.5c)/k arriving at t=0 and living until the end of the run, where
// c = 0.5/(k+1) is the churn size. The anchor size exceeds the residual
// capacity 1.5c, so no bin accepts a (k+1)-th anchor, and exactly one churn
// item fits in a bin at a time (a second would need capacity 2c > 1.5c).
// Churn items then arrive strictly sequentially — item j lives [1+j, 1+j+0.5)
// — so the steady state alternates pack and departure events against bins
// whose active population stays pinned at k (or k+1 mid-churn).
//
// Every policy is deterministic on this family: all bins carry identical
// loads, so Best/Worst Fit tie-break to bin 0, First Fit scans to bin 0, and
// Move To Front keeps its leader. The per-event cost is therefore exactly the
// engine's load-accounting cost at k active items — the quantity this
// benchmark exists to track.
func churnHotPathInstance(d, bins, k, churn int) *item.List {
	c := 0.5 / float64(k+1)
	a := (1 - 1.5*c) / float64(k)
	end := float64(churn) + 2
	l := item.NewList(d)
	for b := 0; b < bins; b++ {
		for i := 0; i < k; i++ {
			l.Add(0, end, vector.Uniform(d, a))
		}
	}
	for j := 0; j < churn; j++ {
		t := 1 + float64(j)
		l.Add(t, t+0.5, vector.Uniform(d, c))
	}
	return l
}

// BenchmarkChurnHotPath is the per-event hot-path benchmark: many long-lived
// items per bin, one departure per arrival in steady state. Load accounting
// that costs O(k·log k) per event dominates this family; the incremental
// engine should be flat in k. Results feed BENCH_core.json (make bench-json).
func BenchmarkChurnHotPath(b *testing.B) {
	const (
		bins  = 16
		k     = 64 // active items per bin: the ISSUE's churn floor
		churn = 2048
	)
	for _, d := range []int{1, 2, 5} {
		l := churnHotPathInstance(d, bins, k, churn)
		for _, name := range []string{"FirstFit", "MoveToFront", "BestFit"} {
			b.Run(fmt.Sprintf("policy=%s/d=%d", name, d), func(b *testing.B) {
				p, err := NewPolicy(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := Simulate(l, p)
					if err != nil {
						b.Fatal(err)
					}
					if res.BinsOpened != bins {
						b.Fatalf("bins opened = %d, want %d", res.BinsOpened, bins)
					}
				}
				events := float64(2 * l.Len()) // one arrival + one departure per item
				b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkSimulateUniform tracks end-to-end engine throughput on the
// paper's workload model, for before/after comparisons when optimising the
// hot path.
func BenchmarkSimulateUniform(b *testing.B) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 2000, Mu: 100, T: 1000, B: 100}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"FirstFit", "MoveToFront", "BestFit"} {
		b.Run(name, func(b *testing.B) {
			p, err := NewPolicy(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(l, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// appendAndPlace admits one item into a dynamic engine and steps it until
// that item's arrival commits, as a server tenant's worker does, and returns
// the arrival's event record.
func appendAndPlace(e *Engine, it item.Item) (EventRecord, error) {
	id, err := e.AppendArrival(it.Arrival, it.Departure, it.Size)
	if err != nil {
		return EventRecord{}, err
	}
	for {
		rec, ok, err := e.Step()
		if err != nil {
			return EventRecord{}, err
		}
		if !ok {
			return EventRecord{}, fmt.Errorf("engine went idle before arrival %d committed", id)
		}
		if rec.Class == EventArrival && rec.ItemID == id {
			return rec, nil
		}
	}
}

// drain steps e until no event is left and finishes it.
func drain(tb testing.TB, e *Engine) *Result {
	tb.Helper()
	for {
		_, ok, err := e.Step()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			break
		}
	}
	res, err := e.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// uniformStream is the paper's uniform model at d = 2 and μ = 10 as a
// placement server's tenant receives it: 1000-item instances, each in
// arrival order and shifted past the previous one's arrival window, cut to
// n items. A FirstFit fleet on it stays near 20 bins.
func uniformStream(n int) ([]item.Item, error) {
	cfg := workload.UniformConfig{D: 2, N: 1000, Mu: 10, T: 170, B: 100}
	width := float64(cfg.T - cfg.Mu + 1)
	out := make([]item.Item, 0, n+cfg.N)
	for k := 0; len(out) < n; k++ {
		l, err := workload.Uniform(cfg, int64(k+1))
		if err != nil {
			return nil, err
		}
		shift := float64(k) * width
		for _, it := range l.SortedByArrival() {
			it.Arrival += shift
			it.Departure += shift
			out = append(out, it)
		}
	}
	return out[:n], nil
}

// azureStream is an Azure-like d = 2 trace at 22 times the generator's base
// rate, without arrival bursts, cut to n items: long heavy-tailed sessions
// that build a fleet of a few hundred bins.
func azureStream(n int) ([]item.Item, error) {
	cfg := workload.AzureLike(2)
	cfg.Rate *= 22
	cfg.Horizon = float64(n)/60 + 10
	cfg.BurstFactor = 1
	l, err := workload.Datacenter(cfg, 1)
	if err != nil {
		return nil, err
	}
	if l.Len() < n {
		return nil, fmt.Errorf("azure stream has %d items, want %d", l.Len(), n)
	}
	return l.SortedByArrival()[:n], nil
}

// BenchmarkDynamicAppendStep times a placement server tenant's engine path:
// each item is admitted with AppendArrival and the engine is stepped until
// that arrival commits; the run then drains and finishes. One op is a whole
// stream of dynamicStreamLen items, so B/op and allocs/op divided by that
// length are the bytes and allocations per placement; ns/item is the time.
func BenchmarkDynamicAppendStep(b *testing.B) {
	const dynamicStreamLen = 4096
	for _, tc := range []struct {
		stream, policy string
		gen            func(int) ([]item.Item, error)
	}{{"uniform", "FirstFit", uniformStream}, {"azure", "BestFit", azureStream}} {
		b.Run(fmt.Sprintf("stream=%s/policy=%s", tc.stream, tc.policy), func(b *testing.B) {
			items, err := tc.gen(dynamicStreamLen)
			if err != nil {
				b.Fatal(err)
			}
			p, err := NewPolicy(tc.policy, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(item.NewList(2), p, WithDynamicArrivals())
				if err != nil {
					b.Fatal(err)
				}
				for _, it := range items {
					if _, err := appendAndPlace(e, it); err != nil {
						b.Fatal(err)
					}
				}
				drain(b, e)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dynamicStreamLen), "ns/item")
		})
	}
}
