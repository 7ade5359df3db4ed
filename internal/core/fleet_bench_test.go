package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dvbp/internal/binindex"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// fleet builds n open bins with heterogeneous loads (uniform on the 1%-grid
// in [0.30, 0.99] per dimension): the steady state of a fleet-scale run,
// isolated from the event loop so a benchmark times nothing but Select.
func fleet(n, d int, seed int64) []*Bin {
	r := rand.New(rand.NewSource(seed))
	open := make([]*Bin, n)
	size := vector.New(d)
	for i := range open {
		b := newBin(i, d, 0, nil, nil)
		for j := range size {
			size[j] = float64(30+r.Intn(70)) / 100
		}
		if err := b.pack(i, size); err != nil {
			panic(err)
		}
		open[i] = b
	}
	return open
}

// fleetIndex builds the indexed store over open under the policy's key, as
// the engine keeps it.
func fleetIndex(p IndexedPolicy, open []*Bin) *BinIndex {
	ix := binindex.New[*Bin](len(open[0].load))
	for _, b := range open {
		kf, ks := p.indexKey(b)
		ix.Insert(kf, ks, b.ID, b.load, b)
	}
	return ix
}

// fleetSizes cycles item sizes from small (most bins fit; Best Fit's
// linear scan still walks the whole fleet to take the argmax) to large (few
// bins fit; every policy's scan walks a long infeasible prefix).
var fleetSizes = []float64{0.05, 0.15, 0.35, 0.55}

// fleetCases are the (policy, d) pairs the fleet benchmark and its guard
// cover: both indexed policies at d = 1, 2 and 5, on the scan and the
// index, and DotProduct at d = 2, whose Select has its own d = 2 loop and
// no index.
var fleetCases = []struct {
	policy string
	d      int
}{{"BestFit", 1}, {"BestFit", 2}, {"BestFit", 5}, {"WorstFit", 1}, {"WorstFit", 2}, {"WorstFit", 5}, {"DotProduct", 2}}

// BenchmarkFleetSelect times one policy decision over a fleet of n open
// bins, the policy's own Select scan (mode=linear) against the indexed
// store (mode=indexed, IndexedPolicy only): the claim of DESIGN.md §11.
// ns/op is the per-item Select cost. Each fleet is built inside its own
// sub-benchmark, so a -bench filter that skips a rung never allocates it.
// Fleet sizes above 10⁴ are skipped in -short mode so `make ci` stays fast,
// and DotProduct runs only at 10⁴; `make bench-json` runs the full ladder.
func BenchmarkFleetSelect(b *testing.B) {
	for _, tc := range fleetCases {
		p, err := NewPolicy(tc.policy, 1)
		if err != nil {
			b.Fatal(err)
		}
		ip, indexed := p.(IndexedPolicy)
		for _, n := range []int{10_000, 100_000, 1_000_000} {
			if (testing.Short() || !indexed) && n > 10_000 {
				continue
			}
			b.Run(fmt.Sprintf("policy=%s/d=%d/n=%d", tc.policy, tc.d, n), func(b *testing.B) {
				open := fleet(n, tc.d, 42)
				var ix *BinIndex
				modes := []string{"linear"}
				if indexed {
					ix = fleetIndex(ip, open)
					modes = append(modes, "indexed")
				}
				req := Request{Size: vector.New(tc.d)}
				for _, mode := range modes {
					b.Run("mode="+mode, func(b *testing.B) {
						b.ReportAllocs()
						hits := 0
						for i := 0; i < b.N; i++ {
							for j := range req.Size {
								req.Size[j] = fleetSizes[i%len(fleetSizes)]
							}
							var chosen *Bin
							if mode == "linear" {
								chosen = p.Select(req, open)
							} else {
								chosen, _ = ix.FirstFeasible(req.Size)
							}
							if chosen != nil {
								hits++
							}
						}
						if hits == 0 {
							b.Fatal("no request ever fit: benchmark is measuring nothing")
						}
					})
				}
			})
		}
	}
}

// TestFleetSelectAgreement guards the benchmark itself: on the exact fleets
// BenchmarkFleetSelect times, the scan and the index must choose the
// same bin for every probe size (a divergence would mean the benchmark
// compares two different computations), and DotProduct's d = 2 loop must
// choose what scoredSelect does.
func TestFleetSelectAgreement(t *testing.T) {
	var scan fitScan
	for _, tc := range fleetCases {
		p, err := NewPolicy(tc.policy, 1)
		if err != nil {
			t.Fatal(err)
		}
		open := fleet(10_000, tc.d, 42)
		ip, indexed := p.(IndexedPolicy)
		var ix *BinIndex
		if indexed {
			ix = fleetIndex(ip, open)
		}
		req := Request{Size: vector.New(tc.d)}
		answered := 0
		for _, s := range fleetSizes {
			for j := range req.Size {
				req.Size[j] = s
			}
			lin := p.Select(req, open)
			var other *Bin
			if indexed {
				other, _ = ix.FirstFeasible(req.Size)
			} else {
				other = scoredSelect(&scan, req, open, dotProductScore)
			}
			if lin != other {
				t.Errorf("%s d=%d size=%v: Select chose %v, the reference path chose %v", tc.policy, tc.d, s, lin, other)
			}
			if other != nil {
				answered++
			}
		}
		if answered == 0 {
			t.Errorf("%s d=%d: no probe size fits, so the agreement is vacuous", tc.policy, tc.d)
		}
	}
}

// crossoverCases are the routes the size rule switches (DESIGN.md §11):
// Worst Fit at every d and Best Fit at d = 1.
var crossoverCases = []struct {
	policy string
	d      int
}{{"WorstFit", 1}, {"WorstFit", 2}, {"WorstFit", 5}, {"BestFit", 1}}

// BenchmarkIndexCrossover is the sweep that fixes indexMinPeak: whole runs
// of the paper's uniform model (μ = 200, T = 1000, B = 100, as in Figure 4)
// with 11·n items, which peak at about n open bins (0.8–1.2·n; the peak
// metric reports it), for n from 64 to 2048. mode=scan runs the policy's
// own Select (WithLinearSelect); mode=index builds the bin index at the
// second dispatch and so pays its upkeep on every open, pack, departure and
// close, as a run past indexMinPeak does. ns/item is the engine's time per
// item on either route, the figure to compare. -short stops at n = 512.
func BenchmarkIndexCrossover(b *testing.B) {
	for _, tc := range crossoverCases {
		for _, n := range []int{64, 128, 256, 512, 1024, 2048} {
			if testing.Short() && n > 512 {
				continue
			}
			b.Run(fmt.Sprintf("policy=%s/d=%d/n=%d", tc.policy, tc.d, n), func(b *testing.B) {
				l, err := workload.Uniform(workload.UniformConfig{D: tc.d, N: 11 * n, Mu: 200, T: 1000, B: 100}, 1)
				if err != nil {
					b.Fatal(err)
				}
				for _, mode := range []string{"scan", "index"} {
					b.Run("mode="+mode, func(b *testing.B) {
						p, err := NewPolicy(tc.policy, 1)
						if err != nil {
							b.Fatal(err)
						}
						opt := withIndexPeak(1)
						if mode == "scan" {
							opt = WithLinearSelect()
						}
						b.ReportAllocs()
						b.ResetTimer()
						peak := 0
						for i := 0; i < b.N; i++ {
							res, err := Simulate(l, p, opt)
							if err != nil {
								b.Fatal(err)
							}
							peak = res.MaxConcurrentBins
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l.Len()), "ns/item")
						b.ReportMetric(float64(peak), "peak")
					})
				}
			})
		}
	}
}
