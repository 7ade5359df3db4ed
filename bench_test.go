// Benchmark harness: one testing.B benchmark per table/figure of the paper
// (see DESIGN.md §3 for the experiment index) plus engine micro-benchmarks.
//
// The figure benchmarks run reduced instance counts per iteration so that
// `go test -bench=.` completes in minutes; cmd/dvbpbench is the
// full-fidelity harness (1000 instances per cell, the paper's Table 2 grid)
// whose output is recorded in EXPERIMENTS.md.
package dvbp_test

import (
	"fmt"
	"testing"

	"dvbp/internal/adversary"
	"dvbp/internal/core"
	"dvbp/internal/experiments"
	"dvbp/internal/lowerbound"
	"dvbp/internal/offline"
	"dvbp/internal/workload"
)

// benchFigure4Panel runs one reduced Figure 4 panel (all six μ values, few
// instances) per iteration and reports the mean MTF ratio as a metric.
func benchFigure4Panel(b *testing.B, d int) {
	cfg := experiments.Figure4Config{
		Ds:        []int{d},
		Mus:       []int{1, 2, 5, 10, 100, 200},
		Instances: 5,
		N:         1000,
		T:         1000,
		B:         100,
		Policies:  core.PolicyNames(),
		Seed:      1,
	}
	b.ReportAllocs()
	var last *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		s := last.Cells[experiments.Cell{D: d, Mu: 200, Policy: "MoveToFront"}]
		b.ReportMetric(s.Mean, "MTF-ratio@mu200")
	}
}

// BenchmarkFigure4D1 regenerates the d=1 panel of Figure 4 (reduced).
func BenchmarkFigure4D1(b *testing.B) { benchFigure4Panel(b, 1) }

// BenchmarkFigure4D2 regenerates the d=2 panel of Figure 4 (reduced).
func BenchmarkFigure4D2(b *testing.B) { benchFigure4Panel(b, 2) }

// BenchmarkFigure4D5 regenerates the d=5 panel of Figure 4 (reduced).
func BenchmarkFigure4D5(b *testing.B) { benchFigure4Panel(b, 5) }

// BenchmarkTheorem5AnyFitLB regenerates the Table 1 Any Fit lower-bound row:
// the Theorem 5 construction at k=64, d=2, μ=10 under First Fit. The
// reported metric is the certified competitive-ratio lower bound.
func BenchmarkTheorem5AnyFitLB(b *testing.B) {
	in, err := adversary.Theorem5(2, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewFirstFit()
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := core.Simulate(in.List, p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = in.MeasuredRatio(res.Cost)
	}
	b.ReportMetric(ratio, "certified-CR")
	b.ReportMetric(in.AsymptoticRatio, "target-CR")
}

// BenchmarkTheorem6NextFitLB regenerates the Table 1 Next Fit lower-bound
// row: Theorem 6 at k=64, d=2, μ=10.
func BenchmarkTheorem6NextFitLB(b *testing.B) {
	in, err := adversary.Theorem6(2, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewNextFit()
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := core.Simulate(in.List, p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = in.MeasuredRatio(res.Cost)
	}
	b.ReportMetric(ratio, "certified-CR")
	b.ReportMetric(in.AsymptoticRatio, "target-CR")
}

// BenchmarkTheorem8MTFLB regenerates the Table 1 Move To Front lower-bound
// row: Theorem 8 at n=128, μ=10.
func BenchmarkTheorem8MTFLB(b *testing.B) {
	in, err := adversary.Theorem8(128, 10)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewMoveToFront()
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := core.Simulate(in.List, p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = in.MeasuredRatio(res.Cost)
	}
	b.ReportMetric(ratio, "certified-CR")
	b.ReportMetric(in.AsymptoticRatio, "target-CR")
}

// BenchmarkBestFitUnbounded regenerates the Table 1 "Best Fit unbounded" row
// via the pillar/sliver degradation family at R=32.
func BenchmarkBestFitUnbounded(b *testing.B) {
	in, err := adversary.BestFitPillars(32, 32*32)
	if err != nil {
		b.Fatal(err)
	}
	p := core.NewBestFit(core.MaxLoad())
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := core.Simulate(in.List, p)
		if err != nil {
			b.Fatal(err)
		}
		ratio = in.MeasuredRatio(res.Cost)
	}
	b.ReportMetric(ratio, "certified-CR")
}

// BenchmarkTable1UpperBoundCheck validates the Table 1 upper bounds
// (cost ≤ bound·OPTUpper) on random instances; the metric is violations
// found (must be 0).
func BenchmarkTable1UpperBoundCheck(b *testing.B) {
	cfg := experiments.UpperBoundCheckConfig{D: 2, N: 150, Mu: 10, T: 150, B: 100, Instances: 5, Seed: 1}
	b.ReportAllocs()
	violations := 0
	for i := 0; i < b.N; i++ {
		viol, _, err := experiments.RunUpperBoundCheck(cfg)
		if err != nil {
			b.Fatal(err)
		}
		violations += len(viol)
	}
	b.ReportMetric(float64(violations), "violations")
}

// BenchmarkAblationBestFitMeasure regenerates the Best Fit load-measure
// ablation (reduced).
func BenchmarkAblationBestFitMeasure(b *testing.B) {
	cfg := experiments.AblationConfig{D: 3, N: 500, Mu: 50, T: 500, B: 100, Instances: 5, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBestFitMeasureAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClairvoyant regenerates the clairvoyant ablation (reduced).
func BenchmarkAblationClairvoyant(b *testing.B) {
	cfg := experiments.AblationConfig{D: 2, N: 500, Mu: 50, T: 500, B: 100, Instances: 5, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunClairvoyanceAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBilling regenerates the billing-granularity ablation
// (reduced).
func BenchmarkAblationBilling(b *testing.B) {
	cfg := experiments.AblationConfig{D: 2, N: 500, Mu: 10, T: 500, B: 100, Instances: 5, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBillingAblation(cfg, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrueRatioExactOPT regenerates the exact-OPT study (reduced): true
// competitive ratios on small instances, with the OPT/LB tightness reported
// as a metric.
func BenchmarkTrueRatioExactOPT(b *testing.B) {
	cfg := experiments.TrueRatioConfig{D: 2, N: 40, Mu: 5, T: 100, B: 100, Instances: 10, Seed: 1, MaxActive: 16}
	b.ReportAllocs()
	var tightness float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTrueRatio(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tightness = res.LBTightness.Mean
	}
	b.ReportMetric(tightness, "OPT/LB")
}

// BenchmarkPolicyThroughput measures items/sec of each policy on a paper-
// sized instance (d=2, n=1000, μ=100).
func BenchmarkPolicyThroughput(b *testing.B) {
	l, err := workload.Uniform(workload.PaperDefaults(2, 100), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range core.PolicyNames() {
		b.Run(name, func(b *testing.B) {
			p, err := core.NewPolicy(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Simulate(l, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(l.Len())*float64(b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

// BenchmarkLowerBoundSweep measures the Lemma 1(i) sweep-line throughput.
func BenchmarkLowerBoundSweep(b *testing.B) {
	l, err := workload.Uniform(workload.PaperDefaults(5, 100), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lowerbound.IntegralBound(l)
	}
}

// BenchmarkOfflinePackers measures the OPT-bracketing heuristics.
func BenchmarkOfflinePackers(b *testing.B) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 300, Mu: 10, T: 300, B: 100}, 1)
	if err != nil {
		b.Fatal(err)
	}
	packers := map[string]func() error{
		"FFD":             func() error { _, err := offline.FirstFitDecreasing(l); return err },
		"DurationClasses": func() error { _, err := offline.DurationClasses(l); return err },
		"GreedyExtension": func() error { _, err := offline.GreedyExtension(l); return err },
	}
	for name, f := range packers {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4SweepThroughput measures sweep throughput on the Figure 4
// runner at 1 and 8 workers. A scheduler task is one instance under every
// policy (generated and bounded once); the shards/sec metric still counts
// cost/LB ratios, one per (instance, policy), i.e. ShardCount per sweep. The
// "workers=N" spelling keeps the two entries distinct in BENCH_core.json
// (the converter strips a trailing -N as the GOMAXPROCS suffix).
func BenchmarkFigure4SweepThroughput(b *testing.B) {
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := experiments.Figure4Config{
				Ds: []int{1, 2}, Mus: []int{5, 10}, Instances: 8,
				N: 300, T: 300, B: 100,
				Policies: []string{"MoveToFront", "FirstFit", "NextFit"},
				Seed:     1,
			}
			cfg.Workers = w
			shards := cfg.ShardCount()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFigure4Sweep(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(shards)*float64(b.N)/b.Elapsed().Seconds(), "shards/sec")
		})
	}
}

// BenchmarkParallelScaling measures Figure 4 cell throughput at 1, 2, 4 and
// 8 workers.
func BenchmarkParallelScaling(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			cfg := experiments.Figure4Config{
				Ds: []int{2}, Mus: []int{10}, Instances: 16,
				N: 500, T: 500, B: 100,
				Policies: []string{"MoveToFront", "FirstFit"},
				Seed:     1,
			}
			cfg.Workers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFigure4(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
