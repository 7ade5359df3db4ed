package experiments

import (
	"context"
	"fmt"
	"strings"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/lowerbound"
	"dvbp/internal/metrics"
	"dvbp/internal/parallel"
	"dvbp/internal/report"
	"dvbp/internal/stats"
	"dvbp/internal/workload"
)

// This file is the fragmentation head-to-head: every Any Fit policy
// (including the fragmentation-aware family) against the paper-uniform,
// Azure-like and Google-like trace models, scored on cost/LB and the
// waste/fragmentation account of metrics.FragTracker. Its point is the
// FARB-style ranking flip: on the paper's uniform traces plain load-greedy
// policies win, while on datacenter-shaped traces (correlated heavy-tailed
// demands, mixed shape families) the balance-aware policies overtake them —
// a ranking no single trace model exposes.

// FragConfig parameterises the fragmentation head-to-head.
type FragConfig struct {
	// D is the number of resource dimensions (>= 2 for stranding to exist).
	D int
	// Instances is the number of independent instances per trace model.
	Instances int
	Seed      int64
	// Horizon is the arrival window of the datacenter trace models; the
	// uniform model's item count is scaled to produce comparable load.
	Horizon float64
	RunControl
}

// DefaultFrag keeps the study cheap enough for a smoke run while leaving the
// ranking gaps clearly outside the error bars.
func DefaultFrag() FragConfig {
	return FragConfig{D: 2, Instances: 40, Seed: 1, Horizon: 120}
}

// Validate checks the configuration.
func (c FragConfig) Validate() error {
	switch {
	case c.D < 1:
		return fmt.Errorf("experiments: frag D = %d, want >= 1", c.D)
	case c.Instances < 1:
		return fmt.Errorf("experiments: frag Instances = %d, want >= 1", c.Instances)
	case c.Horizon <= 0:
		return fmt.Errorf("experiments: frag Horizon = %g, want > 0", c.Horizon)
	}
	return nil
}

// fragTraces returns the trace models in display order. Each generator is
// deterministic in its seed.
func (c FragConfig) fragTraces() []struct {
	Name string
	Gen  func(seed int64) (*item.List, error)
} {
	azure, google := workload.AzureLike(c.D), workload.GoogleLike(c.D)
	azure.Horizon, google.Horizon = c.Horizon, c.Horizon
	// Match the uniform model's total work to the Azure-like trace: both see
	// roughly Rate·Horizon arrivals over the same window. Mu stays in the
	// paper's long-duration regime but may not exceed the window.
	mu := 50
	if t := int(c.Horizon); t < mu {
		mu = t
	}
	ucfg := workload.UniformConfig{
		D: c.D, N: int(azure.Rate * c.Horizon), Mu: mu, T: int(c.Horizon), B: 20,
	}
	return []struct {
		Name string
		Gen  func(seed int64) (*item.List, error)
	}{
		{"uniform", func(seed int64) (*item.List, error) { return workload.Uniform(ucfg, seed) }},
		{"azure", func(seed int64) (*item.List, error) { return workload.Datacenter(azure, seed) }},
		{"google", func(seed int64) (*item.List, error) { return workload.Datacenter(google, seed) }},
	}
}

// FragPolicyNames returns the head-to-head's policy list: the paper's seven
// plus the fragmentation-aware family.
func FragPolicyNames() []string {
	return append(core.PolicyNames(), core.FragmentationAwareNames()...)
}

// FragCell aggregates one (trace, policy) pair across instances.
type FragCell struct {
	Trace  string
	Policy string
	// Ratio is cost/LB; the other summaries aggregate the FragTracker
	// account over instances.
	Ratio     stats.Summary
	WastePct  stats.Summary
	FragPct   stats.Summary
	Imbalance stats.Summary
	// Stranded is the dimension-summed stranded capacity·time.
	Stranded stats.Summary
}

// FragStudy is the full head-to-head result.
type FragStudy struct {
	Traces   []string
	Policies []string
	// Cells is indexed [trace][policy], matching Traces and Policies.
	Cells [][]FragCell
}

// RankFlip records a pair of policies whose cost ranking inverts between two
// trace models: A beats B on TraceA but loses to B on TraceB. Gaps are the
// mean cost/LB differences (both positive).
type RankFlip struct {
	A, B           string
	TraceA, TraceB string
	GapA, GapB     float64
}

// fragTee forwards engine callbacks to the per-run fragmentation tracker and
// an optional shared observer (the -metrics collector), so attaching the
// tracker does not displace experiment-wide instrumentation.
type fragTee struct {
	tr  *metrics.FragTracker
	obs core.Observer
}

func (t fragTee) BeforePack(req core.Request, open []*core.Bin) {
	t.tr.BeforePack(req, open)
	if t.obs != nil {
		t.obs.BeforePack(req, open)
	}
}

func (t fragTee) AfterPack(req core.Request, b *core.Bin, opened bool) {
	t.tr.AfterPack(req, b, opened)
	if t.obs != nil {
		t.obs.AfterPack(req, b, opened)
	}
}

func (t fragTee) BinClosed(b *core.Bin, at float64) {
	t.tr.BinClosed(b, at)
	if t.obs != nil {
		t.obs.BinClosed(b, at)
	}
}

func (t fragTee) ItemDeparted(itemID int, b *core.Bin, at float64) {
	t.tr.ItemDeparted(itemID, b, at)
	if o, ok := t.obs.(core.DepartureObserver); ok {
		o.ItemDeparted(itemID, b, at)
	}
}

func (t fragTee) ItemMigrated(itemID int, from, to *core.Bin, at, cost float64, drained bool) {
	t.tr.ItemMigrated(itemID, from, to, at, cost, drained)
	if o, ok := t.obs.(core.MigrationObserver); ok {
		o.ItemMigrated(itemID, from, to, at, cost, drained)
	}
}

// RunFrag executes the head-to-head. Results are deterministic in (cfg.Seed,
// cfg.Instances) for any Workers value.
func RunFrag(cfg FragConfig) (*FragStudy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	traces := cfg.fragTraces()
	names := FragPolicyNames()
	type cell struct {
		ratio, waste, frag, imb, stranded float64
	}
	trials, err := parallel.MapShards(cfg.Instances, func(_ context.Context, i int) ([][]cell, error) {
		seed := parallel.SeedFor(cfg.Seed, i)
		out := make([][]cell, len(traces))
		for ti, tr := range traces {
			l, err := tr.Gen(seed)
			if err != nil {
				return nil, err
			}
			in, err := core.NewInstance(l)
			if err != nil {
				return nil, err
			}
			lb := lowerbound.IntegralBound(l)
			out[ti] = make([]cell, len(names))
			for pi, n := range names {
				p, err := core.NewPolicy(n, seed)
				if err != nil {
					return nil, err
				}
				ft := metrics.NewFragTracker(cfg.D, nil)
				var shared core.Observer
				if cfg.Observer != nil {
					shared = cfg.Observer
					if rs, ok := shared.(metrics.RunScoper); ok {
						shared = rs.ForRun()
					}
				}
				res, err := in.Simulate(p, core.WithObserver(fragTee{tr: ft, obs: shared}), core.WithHistory(nil))
				if err != nil {
					return nil, err
				}
				s := ft.Summary()
				strandedSum := 0.0
				for _, x := range s.StrandedTime {
					strandedSum += x
				}
				out[ti][pi] = cell{
					ratio: res.Cost / lb, waste: s.WastePct, frag: s.FragPct,
					imb: s.MeanImbalance, stranded: strandedSum,
				}
			}
		}
		return out, nil
	}, cfg.runOptions())
	if err != nil {
		return nil, err
	}
	study := &FragStudy{Policies: names}
	for ti, tr := range traces {
		study.Traces = append(study.Traces, tr.Name)
		row := make([]FragCell, len(names))
		for pi, n := range names {
			var r, w, f, im, st stats.Accumulator
			for _, t := range trials {
				c := t[ti][pi]
				r.Add(c.ratio)
				w.Add(c.waste)
				f.Add(c.frag)
				im.Add(c.imb)
				st.Add(c.stranded)
			}
			row[pi] = FragCell{
				Trace: tr.Name, Policy: n,
				Ratio: r.Summarize(), WastePct: w.Summarize(), FragPct: f.Summarize(),
				Imbalance: im.Summarize(), Stranded: st.Summarize(),
			}
		}
		study.Cells = append(study.Cells, row)
	}
	return study, nil
}

// Ranking returns the study's policies ordered by mean cost/LB on one trace
// model (best first).
func (s *FragStudy) Ranking(trace string) []string {
	ti := s.traceIndex(trace)
	if ti < 0 {
		return nil
	}
	out := append([]string(nil), s.Policies...)
	cells := s.Cells[ti]
	// Insertion sort keeps the tie order deterministic (policy list order).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && s.meanRatio(cells, out[j]) < s.meanRatio(cells, out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (s *FragStudy) traceIndex(trace string) int {
	for i, t := range s.Traces {
		if t == trace {
			return i
		}
	}
	return -1
}

func (s *FragStudy) meanRatio(cells []FragCell, policy string) float64 {
	for _, c := range cells {
		if c.Policy == policy {
			return c.Ratio.Mean
		}
	}
	return 0
}

// Flips lists the policy pairs whose mean-cost ranking inverts between the
// two trace models, strongest inversion first. minGap filters noise: both
// sides of the flip must exceed it (as an absolute cost/LB difference).
func (s *FragStudy) Flips(traceA, traceB string, minGap float64) []RankFlip {
	ai, bi := s.traceIndex(traceA), s.traceIndex(traceB)
	if ai < 0 || bi < 0 {
		return nil
	}
	var out []RankFlip
	for i, p := range s.Policies {
		for j := i + 1; j < len(s.Policies); j++ {
			q := s.Policies[j]
			dA := s.meanRatio(s.Cells[ai], q) - s.meanRatio(s.Cells[ai], p) // >0: p beats q on A
			dB := s.meanRatio(s.Cells[bi], p) - s.meanRatio(s.Cells[bi], q) // >0: q beats p on B
			switch {
			case dA > minGap && dB > minGap:
				out = append(out, RankFlip{A: p, B: q, TraceA: traceA, TraceB: traceB, GapA: dA, GapB: dB})
			case -dA > minGap && -dB > minGap:
				out = append(out, RankFlip{A: q, B: p, TraceA: traceA, TraceB: traceB, GapA: -dA, GapB: -dB})
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].GapA+out[j].GapB > out[j-1].GapA+out[j-1].GapB; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Chart renders mean cost/LB per policy across the trace models (x = trace
// position). Series that cross between x positions are exactly the ranking
// flips Flips reports.
func (s *FragStudy) Chart() *report.Chart {
	c := &report.Chart{
		Title:  "Fragmentation head-to-head: cost/LB by trace model",
		XLabel: fmt.Sprintf("trace model (%s)", traceAxisLegend(s.Traces)),
		YLabel: "cost / lower bound",
	}
	for pi, p := range s.Policies {
		series := report.Series{Name: p}
		for ti := range s.Traces {
			cell := s.Cells[ti][pi]
			series.X = append(series.X, float64(ti+1))
			series.Y = append(series.Y, cell.Ratio.Mean)
			series.YErr = append(series.YErr, cell.Ratio.StdDev)
		}
		c.Series = append(c.Series, series)
	}
	return c
}

func traceAxisLegend(traces []string) string {
	parts := make([]string, len(traces))
	for i, t := range traces {
		parts[i] = fmt.Sprintf("%d=%s", i+1, t)
	}
	return strings.Join(parts, ", ")
}

// Table renders one trace model's head-to-head rows in policy order.
func (s *FragStudy) Table(trace string) *report.Table {
	ti := s.traceIndex(trace)
	if ti < 0 {
		return &report.Table{Title: "unknown trace " + trace}
	}
	rows := make([]report.FragRow, 0, len(s.Policies))
	for _, c := range s.Cells[ti] {
		rows = append(rows, report.FragRow{
			Label: c.Policy,
			Ratio: c.Ratio.Mean,
			Summary: metrics.FragSummary{
				WastePct:      c.WastePct.Mean,
				FragPct:       c.FragPct.Mean,
				MeanImbalance: c.Imbalance.Mean,
				StrandedTime:  []float64{c.Stranded.Mean},
			},
		})
	}
	return report.FragTable(fmt.Sprintf("Fragmentation head-to-head on %s traces (mean over instances)", trace), rows)
}
