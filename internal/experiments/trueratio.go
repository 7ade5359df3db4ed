package experiments

import (
	"context"
	"errors"
	"fmt"

	"dvbp/internal/core"
	"dvbp/internal/exactopt"
	"dvbp/internal/lowerbound"
	"dvbp/internal/parallel"
	"dvbp/internal/report"
	"dvbp/internal/stats"
	"dvbp/internal/workload"
)

// TrueRatioConfig parameterises the exact-OPT study: small instances where
// OPT(R) = ∫ minBins(active(t)) dt is computed exactly (internal/exactopt),
// giving *true* competitive ratios instead of lower-bound-normalised ones.
type TrueRatioConfig struct {
	D, N, Mu, T, B int
	Instances      int
	Seed           int64
	// MaxActive guards the exponential DP; instances whose peak concurrency
	// exceeds it are skipped (and counted).
	MaxActive int
	// RunControl supplies the execution knobs; none of them affect results.
	RunControl
}

// DefaultTrueRatio keeps the expected peak concurrency ~ N·μ̄/T well under
// the DP limit.
func DefaultTrueRatio() TrueRatioConfig {
	return TrueRatioConfig{D: 2, N: 40, Mu: 5, T: 100, B: 100, Instances: 200, Seed: 1, MaxActive: exactopt.DefaultMaxActive}
}

// TrueRatioRow summarises one policy's exact competitive behaviour.
type TrueRatioRow struct {
	Policy string
	// TrueRatio is cost/OPT across instances.
	TrueRatio stats.Summary
	// LBRatio is cost/LB(i) across the same instances (the Figure 4 metric),
	// for comparing the two normalisations.
	LBRatio stats.Summary
}

// TrueRatioResult is the study outcome.
type TrueRatioResult struct {
	Config TrueRatioConfig
	Rows   []TrueRatioRow
	// LBTightness summarises OPT/LB(i): how much the paper's experimental
	// normalisation overstates ratios (1.0 = the lower bound is exact).
	LBTightness stats.Summary
	// Skipped counts instances rejected because their peak concurrency
	// exceeded MaxActive.
	Skipped int
}

// RunTrueRatio executes the study.
func RunTrueRatio(cfg TrueRatioConfig) (*TrueRatioResult, error) {
	wcfg := workload.UniformConfig{D: cfg.D, N: cfg.N, Mu: cfg.Mu, T: cfg.T, B: cfg.B}
	if err := wcfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("experiments: Instances = %d", cfg.Instances)
	}
	names := core.PolicyNames()

	type trial struct {
		skipped bool
		opt, lb float64
		costs   []float64
	}
	trials, err := parallel.MapShards(cfg.Instances, func(_ context.Context, i int) (trial, error) {
		seed := parallel.SeedFor(cfg.Seed, i)
		l, err := workload.Uniform(wcfg, seed)
		if err != nil {
			return trial{}, err
		}
		if exactopt.PeakActive(l) > cfg.MaxActive {
			return trial{skipped: true}, nil
		}
		opt, err := exactopt.Opt(l, exactopt.Options{MaxActive: cfg.MaxActive})
		if err != nil {
			if errors.Is(err, exactopt.ErrTooLarge) {
				return trial{skipped: true}, nil
			}
			return trial{}, err
		}
		in, err := core.NewInstance(l)
		if err != nil {
			return trial{}, err
		}
		tr := trial{opt: opt, lb: lowerbound.IntegralBound(l), costs: make([]float64, len(names))}
		for pi, n := range names {
			p, err := core.NewPolicy(n, seed)
			if err != nil {
				return trial{}, err
			}
			res, err := in.Simulate(p, cfg.costOnlyOpts()...)
			if err != nil {
				return trial{}, err
			}
			tr.costs[pi] = res.Cost
		}
		return tr, nil
	}, cfg.runOptions())
	if err != nil {
		return nil, err
	}

	res := &TrueRatioResult{Config: cfg}
	trueAccs := make([]stats.Accumulator, len(names))
	lbAccs := make([]stats.Accumulator, len(names))
	var tight stats.Accumulator
	for _, tr := range trials {
		if tr.skipped {
			res.Skipped++
			continue
		}
		tight.Add(tr.opt / tr.lb)
		for pi, c := range tr.costs {
			trueAccs[pi].Add(c / tr.opt)
			lbAccs[pi].Add(c / tr.lb)
		}
	}
	if tight.N() == 0 {
		return nil, fmt.Errorf("experiments: every instance exceeded MaxActive=%d; lower N or raise T", cfg.MaxActive)
	}
	res.LBTightness = tight.Summarize()
	for pi, n := range names {
		res.Rows = append(res.Rows, TrueRatioRow{
			Policy:    n,
			TrueRatio: trueAccs[pi].Summarize(),
			LBRatio:   lbAccs[pi].Summarize(),
		})
	}
	return res, nil
}

// Table renders the study.
func (r *TrueRatioResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("True competitive ratios via exact OPT (d=%d n=%d mu=%d, %d instances, %d skipped); OPT/LB tightness %.4f ± %.4f",
			r.Config.D, r.Config.N, r.Config.Mu, r.LBTightness.N, r.Skipped, r.LBTightness.Mean, r.LBTightness.StdDev),
		Headers: []string{"policy", "mean cost/OPT", "max cost/OPT", "mean cost/LB"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy, report.F(row.TrueRatio.Mean), report.F(row.TrueRatio.Max), report.F(row.LBRatio.Mean))
	}
	return t
}
