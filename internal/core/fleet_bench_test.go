package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dvbp/internal/binindex"
	"dvbp/internal/vector"
)

// fleet builds n open bins with heterogeneous loads (uniform on the 1%-grid
// in [0.30, 0.99] per dimension) plus the matching indexed store under the
// policy's key — the steady state of a fleet-scale run, isolated from the
// event loop so the benchmark times nothing but Select.
func fleet(p IndexedPolicy, n, d int, seed int64) ([]*Bin, *BinIndex) {
	r := rand.New(rand.NewSource(seed))
	ix := binindex.New[*Bin](d)
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
		kf, ks := p.indexKey(b)
		ix.Insert(kf, ks, b.ID, b.load, b)
	}
	return open, ix
}

// fleetSizes cycles item sizes from small (most bins fit; Best Fit's
// linear scan still walks the whole fleet to take the argmax) to large (few
// bins fit; every policy's scan walks a long infeasible prefix).
var fleetSizes = []float64{0.05, 0.15, 0.35, 0.55}

// fleetCases are the (policy, d) pairs the fleet benchmark and its guard
// cover: both indexed policies at d = 1, 2 and 5. They fix the engine's
// routing (TestSelectPathRouting): the index where it wins (BestFit d=1,
// WorstFit at every d), the scan where it does not (BestFit d ≥ 2).
var fleetCases = []struct {
	policy string
	d      int
}{{"BestFit", 1}, {"BestFit", 2}, {"BestFit", 5}, {"WorstFit", 1}, {"WorstFit", 2}, {"WorstFit", 5}}

// BenchmarkFleetSelect times one policy decision over a fleet of n open
// bins, the policy's own Select scan (mode=linear) vs indexed store — the
// claim of DESIGN.md §11. ns/op is the per-item Select cost. Each fleet
// is built inside its own sub-benchmark, so a -bench filter that skips a
// rung never allocates it.
// Fleet sizes above 10⁴ are skipped in -short mode so `make ci` stays fast;
// `make bench-json` runs the full ladder.
func BenchmarkFleetSelect(b *testing.B) {
	for _, tc := range fleetCases {
		p, err := NewPolicy(tc.policy, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{10_000, 100_000, 1_000_000} {
			if testing.Short() && n > 10_000 {
				continue
			}
			b.Run(fmt.Sprintf("policy=%s/d=%d/n=%d", tc.policy, tc.d, n), func(b *testing.B) {
				open, ix := fleet(p.(IndexedPolicy), n, tc.d, 42)
				req := Request{Size: vector.New(tc.d)}
				for _, mode := range []string{"linear", "indexed"} {
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
// compares two different computations).
func TestFleetSelectAgreement(t *testing.T) {
	for _, tc := range fleetCases {
		p, err := NewPolicy(tc.policy, 1)
		if err != nil {
			t.Fatal(err)
		}
		open, ix := fleet(p.(IndexedPolicy), 10_000, tc.d, 42)
		req := Request{Size: vector.New(tc.d)}
		for _, s := range fleetSizes {
			for j := range req.Size {
				req.Size[j] = s
			}
			lin := p.Select(req, open)
			idx, _ := ix.FirstFeasible(req.Size)
			if lin != idx {
				t.Errorf("%s d=%d size=%v: linear chose %v, indexed chose %v", tc.policy, tc.d, s, lin, idx)
			}
		}
	}
}
