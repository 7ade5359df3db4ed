package core

import (
	"testing"

	"dvbp/internal/workload"
)

// BenchmarkFragmentationSweep tracks the fragmentation-aware policies'
// end-to-end throughput on the paper's workload model. DotProduct,
// L2Residual and FARB run one path (their own scan); AdaptiveHybrid runs
// twice, on the engine-held open-load totals ("held") and on its own Select,
// which re-sums every open bin per decision ("fresh"). Results feed
// BENCH_core.json (make bench-json).
func BenchmarkFragmentationSweep(b *testing.B) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 2000, Mu: 100, T: 1000, B: 100}, 1)
	if err != nil {
		b.Fatal(err)
	}
	type mode struct {
		label string
		opts  []Option
	}
	for _, name := range FragmentationAwareNames() {
		modes := []mode{{"", nil}}
		if name == "AdaptiveHybrid" {
			modes = []mode{{"/held", nil}, {"/fresh", []Option{WithLinearSelect()}}}
		}
		for _, m := range modes {
			b.Run(name+m.label, func(b *testing.B) {
				p, err := NewPolicy(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var cost float64
				for i := 0; i < b.N; i++ {
					res, err := Simulate(l, p, m.opts...)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						cost = res.Cost
					} else if res.Cost != cost {
						b.Fatalf("cost drifted across runs: %g vs %g", res.Cost, cost)
					}
				}
				events := float64(2 * l.Len())
				b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
