package experiments

import (
	"context"
	"fmt"
	"sort"

	"dvbp/internal/core"
	"dvbp/internal/parallel"
	"dvbp/internal/report"
	"dvbp/internal/stats"
	"dvbp/internal/workload"
)

// Figure4Config parameterises the Section 7 experiment. The zero value is not
// valid; use DefaultFigure4 for the paper's Table 2 grid.
type Figure4Config struct {
	// Ds are the dimension panels (paper: 1, 2, 5).
	Ds []int
	// Mus are the maximum-duration sweep values (paper: 1,2,5,10,100,200).
	Mus []int
	// Instances is the number of random instances per (d, μ) cell
	// (paper: 1000).
	Instances int
	// N, T, B are the remaining Table 2 parameters (1000, 1000, 100).
	N, T, B int
	// Policies are the canonical policy names to evaluate (default: the
	// seven from the paper).
	Policies []string
	// Seed derives all per-trial seeds.
	Seed int64
	// RunControl supplies the execution knobs (Workers, Ctx, Observer);
	// none of them affect results.
	RunControl
}

// DefaultFigure4 returns the paper's exact experimental grid.
func DefaultFigure4() Figure4Config {
	return Figure4Config{
		Ds:        []int{1, 2, 5},
		Mus:       []int{1, 2, 5, 10, 100, 200},
		Instances: 1000,
		N:         1000,
		T:         1000,
		B:         100,
		Policies:  core.PolicyNames(),
		Seed:      1,
	}
}

// Validate checks the configuration.
func (c Figure4Config) Validate() error {
	if len(c.Ds) == 0 || len(c.Mus) == 0 || len(c.Policies) == 0 {
		return fmt.Errorf("experiments: empty sweep in Figure4Config")
	}
	if c.Instances < 1 {
		return fmt.Errorf("experiments: Instances = %d", c.Instances)
	}
	for _, d := range c.Ds {
		for _, mu := range c.Mus {
			if err := (workload.UniformConfig{D: d, N: c.N, Mu: mu, T: c.T, B: c.B}).Validate(); err != nil {
				return err
			}
		}
	}
	for _, p := range c.Policies {
		if _, err := core.NewPolicy(p, 0); err != nil {
			return err
		}
	}
	return nil
}

// Cell identifies one point of the Figure 4 grid.
type Cell struct {
	D      int
	Mu     int
	Policy string
}

// Figure4Result holds, per cell, the summary of cost/LB ratios across
// instances (mean ± stddev, as plotted in the paper with error bars).
type Figure4Result struct {
	Config Figure4Config
	Cells  map[Cell]stats.Summary
}

// figure4Cell is one (d, μ) point of the grid, in Ds × Mus iteration order.
type figure4Cell struct{ d, mu int }

func (c Figure4Config) cellGrid() []figure4Cell {
	cells := make([]figure4Cell, 0, len(c.Ds)*len(c.Mus))
	for _, d := range c.Ds {
		for _, mu := range c.Mus {
			cells = append(cells, figure4Cell{d, mu})
		}
	}
	return cells
}

// Figure 4 work layout: the scheduler runs one task per (cell, instance)
// pair, task = cellIdx*Instances+instance. A task generates its instance and
// the Lemma 1(i) bound once, from (cell, instance) alone — using the same
// seed derivation as the historical per-instance trials, so recorded
// experiment outputs for a given root seed stay valid — and then runs every
// policy on it. Its ratios land at dense indices task*len(Policies)+policyIdx,
// i.e. ((cellIdx*Instances)+instance)*len(Policies)+policyIdx.

// ShardCount returns the number of cost/LB ratios the sweep computes: one
// per (cell, instance, policy) triple.
func (c Figure4Config) ShardCount() int {
	return len(c.Ds) * len(c.Mus) * c.Instances * len(c.Policies)
}

// cellSeed is the historical per-(d, μ) seed base; per-instance seeds are
// parallel.SeedFor(cellSeed, instance).
func (c Figure4Config) cellSeed(d, mu int) int64 {
	return c.Seed ^ (int64(d) << 32) ^ (int64(mu) << 16)
}

// figure4Instance runs one task: it generates instance i of cell, prepares
// it and bounds it once, then writes each policy's cost/LB ratio to
// out[policyIdx]. A ratio reads only the run's cost, so the runs keep no
// history.
func figure4Instance(cfg Figure4Config, cell figure4Cell, i int, out []float64) error {
	wcfg := workload.UniformConfig{D: cell.d, N: cfg.N, Mu: cell.mu, T: cfg.T, B: cfg.B}
	seed := parallel.SeedFor(cfg.cellSeed(cell.d, cell.mu), i)
	l, err := workload.Uniform(wcfg, seed)
	if err != nil {
		return err
	}
	in, lb, err := boundedInstance(l)
	if err != nil {
		return err
	}
	if lb <= 0 {
		return fmt.Errorf("non-positive lower bound")
	}
	for pi, name := range cfg.Policies {
		p, err := core.NewPolicy(name, seed)
		if err != nil {
			return err
		}
		r, err := in.Simulate(p, cfg.costOnlyOpts()...)
		if err != nil {
			return err
		}
		out[pi] = r.Cost / lb
	}
	return nil
}

// Figure4Sweep is the raw outcome of a Figure 4 run: one cost/LB ratio per
// (cell, instance, policy), in the dense order described above.
type Figure4Sweep struct {
	// Config is the grid the sweep ran; its RunControl is zero, since the
	// execution knobs do not affect results.
	Config Figure4Config
	ratios []float64
}

// Dense returns the sweep's ratios in dense order. A sweep always covers
// its whole grid, so the error is nil.
func (s *Figure4Sweep) Dense() ([]float64, error) { return s.ratios, nil }

// RunFigure4Sweep executes the sweep and returns the raw per-(cell,
// instance, policy) ratios.
func RunFigure4Sweep(cfg Figure4Config) (*Figure4Sweep, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cells := cfg.cellGrid()
	nP := len(cfg.Policies)
	ratios := make([]float64, cfg.ShardCount())
	err := parallel.Run(len(cells)*cfg.Instances, func(_ context.Context, task int) error {
		return figure4Instance(cfg, cells[task/cfg.Instances], task%cfg.Instances, ratios[task*nP:(task+1)*nP])
	}, cfg.runOptions())
	if err != nil {
		return nil, err
	}
	cfg.RunControl = RunControl{}
	return &Figure4Sweep{Config: cfg, ratios: ratios}, nil
}

// RunFigure4 executes the experiment. For each (d, μ) it generates Instances
// random instances; each instance is normalised by the Lemma 1(i) lower
// bound and every policy's cost/LB ratio is folded into its cell summary.
func RunFigure4(cfg Figure4Config) (*Figure4Result, error) {
	sweep, err := RunFigure4Sweep(cfg)
	if err != nil {
		return nil, err
	}
	return Figure4SweepResult(sweep)
}

// Figure4SweepResult folds a sweep into per-cell summaries. Ratios are
// folded in ascending instance order per (cell, policy) — the same order as
// the sequential reference path, so summaries are bit-identical to it for
// any worker count.
func Figure4SweepResult(s *Figure4Sweep) (*Figure4Result, error) {
	cfg := s.Config
	if want := cfg.ShardCount(); len(s.ratios) != want {
		return nil, fmt.Errorf("experiments: sweep holds %d ratios, its config implies %d", len(s.ratios), want)
	}
	res := &Figure4Result{Config: cfg, Cells: make(map[Cell]stats.Summary)}
	nP := len(cfg.Policies)
	for ci, cell := range cfg.cellGrid() {
		for pi, name := range cfg.Policies {
			var acc stats.Accumulator
			for i := 0; i < cfg.Instances; i++ {
				acc.Add(s.ratios[(ci*cfg.Instances+i)*nP+pi])
			}
			res.Cells[Cell{D: cell.d, Mu: cell.mu, Policy: name}] = acc.Summarize()
		}
	}
	return res, nil
}

// Table renders the result for one dimension panel as a μ × policy grid of
// "mean ± stddev" cells.
func (r *Figure4Result) Table(d int) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 4 (d=%d): mean cost / Lemma-1(i) lower bound over %d instances", d, r.Config.Instances),
		Headers: append([]string{"mu"}, r.Config.Policies...),
	}
	for _, mu := range r.Config.Mus {
		row := []string{fmt.Sprintf("%d", mu)}
		for _, p := range r.Config.Policies {
			s := r.Cells[Cell{D: d, Mu: mu, Policy: p}]
			row = append(row, fmt.Sprintf("%.4f ± %.4f", s.Mean, s.StdDev))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Chart renders the result for one dimension panel as an SVG line chart
// (ratio vs μ, one series per policy, error bars = stddev) — the shape of
// one Figure 4 panel.
func (r *Figure4Result) Chart(d int) *report.Chart {
	c := &report.Chart{
		Title:  fmt.Sprintf("Average-case performance, d=%d", d),
		XLabel: "mu (max item duration)",
		YLabel: "cost / lower bound",
		LogX:   true,
	}
	for _, p := range r.Config.Policies {
		s := report.Series{Name: p}
		for _, mu := range r.Config.Mus {
			sum := r.Cells[Cell{D: d, Mu: mu, Policy: p}]
			s.X = append(s.X, float64(mu))
			s.Y = append(s.Y, sum.Mean)
			s.YErr = append(s.YErr, sum.StdDev)
		}
		c.Series = append(c.Series, s)
	}
	return c
}

// Ranking returns the policies sorted by mean ratio (best first) for one
// (d, μ) cell.
func (r *Figure4Result) Ranking(d, mu int) []string {
	ps := make([]string, len(r.Config.Policies))
	copy(ps, r.Config.Policies)
	sort.SliceStable(ps, func(i, j int) bool {
		return r.Cells[Cell{D: d, Mu: mu, Policy: ps[i]}].Mean < r.Cells[Cell{D: d, Mu: mu, Policy: ps[j]}].Mean
	})
	return ps
}
