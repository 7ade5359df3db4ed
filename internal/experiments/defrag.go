package experiments

import (
	"context"
	"fmt"

	"dvbp/internal/core"
	"dvbp/internal/lowerbound"
	"dvbp/internal/metrics"
	"dvbp/internal/migrate"
	"dvbp/internal/offline"
	"dvbp/internal/parallel"
	"dvbp/internal/report"
	"dvbp/internal/stats"
)

// This file is the budgeted-defragmentation study: every Any Fit policy runs
// each trace model twice — once irrevocable (the paper's model), once with
// periodic budgeted consolidation passes (internal/migrate) — and the study
// reports the usage-time and stranded-capacity·time gains next to the exact
// migration cost paid for them. Costs are normalised by the Lemma 1 integral
// lower bound, and each trace carries its offline upper estimate, so every
// ratio sits inside the same [1, UB/LB] bracket RunFrag uses.

// DefragConfig parameterises the defragmentation study.
type DefragConfig struct {
	// D is the number of resource dimensions.
	D int
	// Instances is the number of independent instances per trace model.
	Instances int
	Seed      int64
	// Horizon is the arrival window of the trace models (see FragConfig).
	Horizon float64
	// Migration is the budgeted consolidation configuration of the migrating
	// leg. It must be enabled (non-empty planner, positive period and budget).
	Migration migrate.Config
	RunControl
}

// DefaultDefrag keeps the study smoke-runnable: a short drain-emptiest
// cadence with a per-pass move cap, no cost cap.
func DefaultDefrag() DefragConfig {
	return DefragConfig{
		D: 2, Instances: 12, Seed: 1, Horizon: 120,
		Migration: migrate.Config{Planner: "drain-emptiest", Period: 5, MaxMoves: 8},
	}
}

// Validate checks the configuration.
func (c DefragConfig) Validate() error {
	switch {
	case c.D < 1:
		return fmt.Errorf("experiments: defrag D = %d, want >= 1", c.D)
	case c.Instances < 1:
		return fmt.Errorf("experiments: defrag Instances = %d, want >= 1", c.Instances)
	case c.Horizon <= 0:
		return fmt.Errorf("experiments: defrag Horizon = %g, want > 0", c.Horizon)
	case !c.Migration.Enabled():
		return fmt.Errorf("experiments: defrag needs an enabled migration config (got %+v)", c.Migration)
	}
	_, err := c.Migration.Option()
	return err
}

// DefragCell aggregates one (trace, policy) pair across instances. Base is
// the irrevocable leg, Mig the budgeted-migration leg of the same instances.
type DefragCell struct {
	Trace  string
	Policy string
	// Base and Mig are usage-time cost / LB; MigTotal adds the migration
	// cost to the numerator, so Mig < MigTotal always and migration is a net
	// win exactly when MigTotal < Base.
	Base     stats.Summary
	Mig      stats.Summary
	MigTotal stats.Summary
	// BaseStranded and MigStranded are the dimension-summed stranded
	// capacity·time integrals of the two legs.
	BaseStranded stats.Summary
	MigStranded  stats.Summary
	// Moves, Drained and MoveCost account the migrating leg: moves applied,
	// bins drained-and-closed by moves, and the summed size·remaining-
	// duration cost of the moves.
	Moves    stats.Summary
	Drained  stats.Summary
	MoveCost stats.Summary
}

// CostGainPct is the mean usage-time improvement of migration net of nothing
// (pure usage-time, the objective) as a percentage of the baseline.
func (c DefragCell) CostGainPct() float64 {
	if c.Base.Mean == 0 {
		return 0
	}
	return (c.Base.Mean - c.Mig.Mean) / c.Base.Mean * 100
}

// StrandedGainPct is the mean stranded-capacity·time improvement as a
// percentage of the baseline.
func (c DefragCell) StrandedGainPct() float64 {
	if c.BaseStranded.Mean == 0 {
		return 0
	}
	return (c.BaseStranded.Mean - c.MigStranded.Mean) / c.BaseStranded.Mean * 100
}

// DefragStudy is the full study result.
type DefragStudy struct {
	// Migration is the display form of the budgeted configuration.
	Migration string
	Traces    []string
	Policies  []string
	// Cells is indexed [trace][policy], matching Traces and Policies.
	Cells [][]DefragCell
	// Offline is the per-trace offline bracket: BestUpperEstimate / LB, so
	// every cell's ratios live in [1, Offline.Mean] up to estimator noise.
	Offline []stats.Summary
}

// RunDefrag executes the study. Results are deterministic in (cfg.Seed,
// cfg.Instances) for any Workers value.
func RunDefrag(cfg DefragConfig) (*DefragStudy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	migOpt, err := cfg.Migration.Option()
	if err != nil {
		return nil, err
	}
	traces := FragConfig{D: cfg.D, Horizon: cfg.Horizon}.fragTraces()
	names := FragPolicyNames()
	type cell struct {
		base, mig, migTotal, baseStranded, migStranded float64
		moves, drained                                 int
		moveCost                                       float64
	}
	type shardOut struct {
		cells   [][]cell
		offline []float64
	}
	trials, err := parallel.MapShards(cfg.Instances, func(_ context.Context, i int) (shardOut, error) {
		seed := parallel.SeedFor(cfg.Seed, i)
		out := shardOut{cells: make([][]cell, len(traces))}
		for ti, tr := range traces {
			l, err := tr.Gen(seed)
			if err != nil {
				return shardOut{}, err
			}
			in, err := core.NewInstance(l)
			if err != nil {
				return shardOut{}, err
			}
			lb := lowerbound.IntegralBound(l)
			up, err := offline.BestUpperEstimate(l)
			if err != nil {
				return shardOut{}, err
			}
			out.offline = append(out.offline, up.Cost/lb)
			out.cells[ti] = make([]cell, len(names))
			for pi, n := range names {
				var c cell
				for _, leg := range []struct {
					migrating bool
				}{{false}, {true}} {
					p, err := core.NewPolicy(n, seed)
					if err != nil {
						return shardOut{}, err
					}
					ft := metrics.NewFragTracker(cfg.D, nil)
					var shared core.Observer
					if cfg.Observer != nil {
						shared = cfg.Observer
						if rs, ok := shared.(metrics.RunScoper); ok {
							shared = rs.ForRun()
						}
					}
					opts := []core.Option{core.WithObserver(fragTee{tr: ft, obs: shared}), core.WithHistory(nil)}
					if leg.migrating {
						opts = append(opts, migOpt)
					}
					res, err := in.Simulate(p, opts...)
					if err != nil {
						return shardOut{}, err
					}
					stranded := 0.0
					for _, x := range ft.Summary().StrandedTime {
						stranded += x
					}
					if leg.migrating {
						c.mig = res.Cost / lb
						c.migTotal = (res.Cost + res.MigrationCost) / lb
						c.migStranded = stranded
						c.moves = res.Migrations
						c.drained = res.BinsDrained
						c.moveCost = res.MigrationCost
					} else {
						c.base = res.Cost / lb
						c.baseStranded = stranded
					}
				}
				out.cells[ti][pi] = c
			}
		}
		return out, nil
	}, cfg.runOptions())
	if err != nil {
		return nil, err
	}
	study := &DefragStudy{Migration: cfg.Migration.String(), Policies: names}
	for ti, tr := range traces {
		study.Traces = append(study.Traces, tr.Name)
		var off stats.Accumulator
		for _, t := range trials {
			off.Add(t.offline[ti])
		}
		study.Offline = append(study.Offline, off.Summarize())
		row := make([]DefragCell, len(names))
		for pi, n := range names {
			var b, m, mt, bs, ms, mv, dr, mc stats.Accumulator
			for _, t := range trials {
				c := t.cells[ti][pi]
				b.Add(c.base)
				m.Add(c.mig)
				mt.Add(c.migTotal)
				bs.Add(c.baseStranded)
				ms.Add(c.migStranded)
				mv.Add(float64(c.moves))
				dr.Add(float64(c.drained))
				mc.Add(c.moveCost)
			}
			row[pi] = DefragCell{
				Trace: tr.Name, Policy: n,
				Base: b.Summarize(), Mig: m.Summarize(), MigTotal: mt.Summarize(),
				BaseStranded: bs.Summarize(), MigStranded: ms.Summarize(),
				Moves: mv.Summarize(), Drained: dr.Summarize(), MoveCost: mc.Summarize(),
			}
		}
		study.Cells = append(study.Cells, row)
	}
	return study, nil
}

func (s *DefragStudy) traceIndex(trace string) int {
	for i, t := range s.Traces {
		if t == trace {
			return i
		}
	}
	return -1
}

// Improved lists the policies whose migrating leg strictly improves mean
// usage-time cost OR mean stranded·time over the irrevocable baseline on one
// trace model, in policy order.
func (s *DefragStudy) Improved(trace string) []string {
	ti := s.traceIndex(trace)
	if ti < 0 {
		return nil
	}
	var out []string
	for _, c := range s.Cells[ti] {
		if c.Mig.Mean < c.Base.Mean || c.MigStranded.Mean < c.BaseStranded.Mean {
			out = append(out, c.Policy)
		}
	}
	return out
}

// NetWins lists the policies for which migration wins even after paying for
// the moves: mean (cost + migration cost)/LB below the baseline's.
func (s *DefragStudy) NetWins(trace string) []string {
	ti := s.traceIndex(trace)
	if ti < 0 {
		return nil
	}
	var out []string
	for _, c := range s.Cells[ti] {
		if c.MigTotal.Mean < c.Base.Mean {
			out = append(out, c.Policy)
		}
	}
	return out
}

// Table renders one trace model's rows in policy order.
func (s *DefragStudy) Table(trace string) *report.Table {
	ti := s.traceIndex(trace)
	if ti < 0 {
		return &report.Table{Title: "unknown trace " + trace}
	}
	t := &report.Table{
		Title: fmt.Sprintf("Budgeted defragmentation on %s traces (%s; mean over instances; OPT in [1, %.4f]·LB)",
			trace, s.Migration, s.Offline[ti].Mean),
		Headers: []string{
			"policy", "base cost/LB", "mig cost/LB", "+migcost/LB", "Δcost",
			"base strand·t", "mig strand·t", "Δstrand", "moves", "drained", "move cost",
		},
	}
	for _, c := range s.Cells[ti] {
		t.AddRow(c.Policy,
			fmt.Sprintf("%.4f", c.Base.Mean), fmt.Sprintf("%.4f", c.Mig.Mean),
			fmt.Sprintf("%.4f", c.MigTotal.Mean), fmt.Sprintf("%+.2f%%", -c.CostGainPct()),
			fmt.Sprintf("%.2f", c.BaseStranded.Mean), fmt.Sprintf("%.2f", c.MigStranded.Mean),
			fmt.Sprintf("%+.2f%%", -c.StrandedGainPct()),
			fmt.Sprintf("%.1f", c.Moves.Mean), fmt.Sprintf("%.1f", c.Drained.Mean),
			fmt.Sprintf("%.2f", c.MoveCost.Mean))
	}
	return t
}

// Chart renders the net-of-cost usage-time gain per policy across the trace
// models: (base − (cost + migration cost))/base · 100, per mean ratios. A
// series above zero pays for its own moves.
func (s *DefragStudy) Chart() *report.Chart {
	c := &report.Chart{
		Title:  fmt.Sprintf("Budgeted defragmentation: net usage-time gain (%s)", s.Migration),
		XLabel: fmt.Sprintf("trace model (%s)", traceAxisLegend(s.Traces)),
		YLabel: "net gain over irrevocable baseline (%)",
	}
	for pi, p := range s.Policies {
		series := report.Series{Name: p}
		for ti := range s.Traces {
			cell := s.Cells[ti][pi]
			gain := 0.0
			if cell.Base.Mean != 0 {
				gain = (cell.Base.Mean - cell.MigTotal.Mean) / cell.Base.Mean * 100
			}
			series.X = append(series.X, float64(ti+1))
			series.Y = append(series.Y, gain)
		}
		c.Series = append(c.Series, series)
	}
	return c
}
