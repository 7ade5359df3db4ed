package experiments

import (
	"context"
	"fmt"

	"dvbp/internal/clairvoyant"
	"dvbp/internal/core"
	"dvbp/internal/parallel"
	"dvbp/internal/report"
	"dvbp/internal/stats"
	"dvbp/internal/workload"
)

// AblationConfig parameterises the reproduction's own design-space studies,
// which use the Figure 4 workload model.
type AblationConfig struct {
	D, N, Mu, T, B int
	Instances      int
	Seed           int64
	// RunControl supplies the execution knobs; none of them affect results.
	RunControl
}

// DefaultAblation matches one Figure 4 cell (d=2, μ=100) at reduced instance
// count.
func DefaultAblation() AblationConfig {
	return AblationConfig{D: 2, N: 1000, Mu: 100, T: 1000, B: 100, Instances: 100, Seed: 1}
}

func (c AblationConfig) workloadConfig() workload.UniformConfig {
	return workload.UniformConfig{D: c.D, N: c.N, Mu: c.Mu, T: c.T, B: c.B}
}

// runPolicySet measures mean cost/LB for a fixed list of policy factories.
// Every policy runs on one prepared instance and keeps no history.
func runPolicySet(cfg AblationConfig, names []string, mk func(name string, seed int64) (core.Policy, error), opts ...core.Option) (map[string]stats.Summary, error) {
	wcfg := cfg.workloadConfig()
	if err := wcfg.Validate(); err != nil {
		return nil, err
	}
	trials, err := parallel.MapShards(cfg.Instances, func(_ context.Context, i int) ([]float64, error) {
		// Observer scoping is per shard: views minted here are never shared
		// between concurrent shards.
		opts := append(cfg.costOnlyOpts(), opts...)
		seed := parallel.SeedFor(cfg.Seed, i)
		l, err := workload.Uniform(wcfg, seed)
		if err != nil {
			return nil, err
		}
		in, lb, err := boundedInstance(l)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(names))
		for pi, n := range names {
			p, err := mk(n, seed)
			if err != nil {
				return nil, err
			}
			res, err := in.Simulate(p, opts...)
			if err != nil {
				return nil, err
			}
			out[pi] = res.Cost / lb
		}
		return out, nil
	}, cfg.runOptions())
	if err != nil {
		return nil, err
	}
	accs := make([]stats.Accumulator, len(names))
	for _, tr := range trials {
		for pi, r := range tr {
			accs[pi].Add(r)
		}
	}
	out := make(map[string]stats.Summary, len(names))
	for pi, n := range names {
		out[n] = accs[pi].Summarize()
	}
	return out, nil
}

// RunBestFitMeasureAblation compares Best Fit under L∞, L1 and L2 load
// measures (the design choice Section 2.2 leaves open for d ≥ 2).
func RunBestFitMeasureAblation(cfg AblationConfig) (map[string]stats.Summary, error) {
	names := []string{"BestFit", "BestFit-L1", "BestFit-Lp2"}
	return runPolicySet(cfg, names, core.NewPolicy)
}

// RunClairvoyanceAblation compares the non-clairvoyant winners against the
// clairvoyant extensions on the same instances (paper §8 future work).
func RunClairvoyanceAblation(cfg AblationConfig) (map[string]stats.Summary, error) {
	names := []string{"MoveToFront", "FirstFit", "DurationClassFit", "WindowedClassFit", "AlignedBestFit"}
	mk := func(name string, seed int64) (core.Policy, error) {
		if p, err := clairvoyant.New(name); err == nil {
			return p, nil
		}
		return core.NewPolicy(name, seed)
	}
	return runPolicySet(cfg, names, mk, core.WithClairvoyance())
}

// BillingRow is one policy's usage vs billed cost under a billing quantum.
type BillingRow struct {
	Policy      string
	MeanUsage   float64
	MeanBilled  float64
	BilledRatio float64 // billed / usage
}

// RunBillingAblation measures how much pay-per-started-quantum billing
// inflates the exact MinUsageTime objective for each policy. Policies that
// open many short-lived bins (Worst Fit) suffer the most rounding overhead.
func RunBillingAblation(cfg AblationConfig, quantum float64) ([]BillingRow, error) {
	if quantum <= 0 {
		return nil, fmt.Errorf("experiments: quantum must be positive")
	}
	wcfg := cfg.workloadConfig()
	if err := wcfg.Validate(); err != nil {
		return nil, err
	}
	names := core.PolicyNames()
	type trial struct{ usage, billed []float64 }
	trials, err := parallel.MapShards(cfg.Instances, func(_ context.Context, i int) (trial, error) {
		seed := parallel.SeedFor(cfg.Seed, i)
		l, err := workload.Uniform(wcfg, seed)
		if err != nil {
			return trial{}, err
		}
		// The billed cost reads every bin's usage, so the runs keep their
		// history.
		in, err := core.NewInstance(l)
		if err != nil {
			return trial{}, err
		}
		tr := trial{usage: make([]float64, len(names)), billed: make([]float64, len(names))}
		for pi, n := range names {
			p, err := core.NewPolicy(n, seed)
			if err != nil {
				return trial{}, err
			}
			res, err := in.Simulate(p, cfg.observerOpts()...)
			if err != nil {
				return trial{}, err
			}
			tr.usage[pi] = res.Cost
			for _, b := range res.Bins {
				q := b.Usage() / quantum
				whole := float64(int(q))
				if q > whole+1e-9 {
					whole++
				}
				tr.billed[pi] += whole * quantum
			}
		}
		return tr, nil
	}, cfg.runOptions())
	if err != nil {
		return nil, err
	}
	rows := make([]BillingRow, len(names))
	for pi, n := range names {
		var u, b stats.Accumulator
		for _, tr := range trials {
			u.Add(tr.usage[pi])
			b.Add(tr.billed[pi])
		}
		rows[pi] = BillingRow{Policy: n, MeanUsage: u.Mean(), MeanBilled: b.Mean(), BilledRatio: b.Mean() / u.Mean()}
	}
	return rows, nil
}

// SummaryTable renders a name -> Summary map deterministically (in the given
// name order).
func SummaryTable(title string, names []string, m map[string]stats.Summary) *report.Table {
	t := &report.Table{Title: title, Headers: []string{"policy", "mean cost/LB", "stddev", "min", "max", "n"}}
	for _, n := range names {
		s := m[n]
		t.AddRow(n, report.F(s.Mean), report.F(s.StdDev), report.F(s.Min), report.F(s.Max), fmt.Sprintf("%d", s.N))
	}
	return t
}

// BillingTable renders the billing ablation.
func BillingTable(rows []BillingRow, quantum float64) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Billing ablation: exact usage vs per-started-quantum billing (quantum=%g)", quantum),
		Headers: []string{"policy", "mean usage", "mean billed", "billed/usage"},
	}
	for _, r := range rows {
		t.AddRow(r.Policy, report.F(r.MeanUsage), report.F(r.MeanBilled), report.F(r.BilledRatio))
	}
	return t
}
