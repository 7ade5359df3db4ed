package experiments

import (
	"context"

	"dvbp/internal/analysis"
	"dvbp/internal/core"
	"dvbp/internal/lowerbound"
	"dvbp/internal/parallel"
	"dvbp/internal/report"
	"dvbp/internal/stats"
	"dvbp/internal/workload"
)

// QualityRow aggregates the packing/alignment metrics of one policy across
// instances — the quantified version of the paper's Section 7 discussion
// ("Packing and Alignment").
type QualityRow struct {
	Policy string
	// Utilization is the time-averaged L∞ load of open bins (packing).
	Utilization stats.Summary
	// Straggler is the fraction of bin-time below half the bin's peak load
	// (misalignment).
	Straggler stats.Summary
	// Ratio is the usual cost/LB for context.
	Ratio stats.Summary
}

// RunQuality measures the metrics for the seven standard policies on the
// Figure 4 workload model.
func RunQuality(cfg AblationConfig) ([]QualityRow, error) {
	wcfg := cfg.workloadConfig()
	if err := wcfg.Validate(); err != nil {
		return nil, err
	}
	names := core.PolicyNames()
	type trial struct {
		util, strag, ratio []float64
	}
	trials, err := parallel.MapShards(cfg.Instances, func(_ context.Context, i int) (trial, error) {
		seed := parallel.SeedFor(cfg.Seed, i)
		l, err := workload.Uniform(wcfg, seed)
		if err != nil {
			return trial{}, err
		}
		// analysis.Quality reads the placements and bin records, so the runs
		// keep their history.
		in, err := core.NewInstance(l)
		if err != nil {
			return trial{}, err
		}
		tr := trial{
			util:  make([]float64, len(names)),
			strag: make([]float64, len(names)),
			ratio: make([]float64, len(names)),
		}
		lb := lowerbound.IntegralBound(l)
		for pi, n := range names {
			p, err := core.NewPolicy(n, seed)
			if err != nil {
				return trial{}, err
			}
			res, err := in.Simulate(p, cfg.observerOpts()...)
			if err != nil {
				return trial{}, err
			}
			q, err := analysis.Quality(l, res)
			if err != nil {
				return trial{}, err
			}
			tr.util[pi] = q.AvgUtilization
			tr.strag[pi] = q.StragglerFraction
			tr.ratio[pi] = res.Cost / lb
		}
		return tr, nil
	}, cfg.runOptions())
	if err != nil {
		return nil, err
	}
	rows := make([]QualityRow, len(names))
	for pi, n := range names {
		var u, s, r stats.Accumulator
		for _, tr := range trials {
			u.Add(tr.util[pi])
			s.Add(tr.strag[pi])
			r.Add(tr.ratio[pi])
		}
		rows[pi] = QualityRow{Policy: n, Utilization: u.Summarize(), Straggler: s.Summarize(), Ratio: r.Summarize()}
	}
	return rows, nil
}

// QualityTable renders the study.
func QualityTable(rows []QualityRow) *report.Table {
	t := &report.Table{
		Title:   "Packing vs alignment (Section 7's explanation, quantified): utilisation = packing quality, straggler = misalignment",
		Headers: []string{"policy", "utilization", "straggler frac", "cost/LB"},
	}
	for _, r := range rows {
		t.AddRow(r.Policy, report.F(r.Utilization.Mean), report.F(r.Straggler.Mean), report.F(r.Ratio.Mean))
	}
	return t
}
