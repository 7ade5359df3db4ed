package experiments

import (
	"context"
	"fmt"
	"math"

	"dvbp/internal/adversary"
	"dvbp/internal/core"
	"dvbp/internal/offline"
	"dvbp/internal/parallel"
	"dvbp/internal/report"
	"dvbp/internal/workload"
)

// Table1UpperBound returns the Table 1 upper bound on the competitive ratio
// of the named policy for given μ and d, or +Inf for policies with no finite
// bound (Best Fit et al.).
func Table1UpperBound(policy string, mu float64, d int) float64 {
	df := float64(d)
	switch policy {
	case "MoveToFront":
		return (2*mu+1)*df + 1 // Theorem 2
	case "FirstFit":
		return (mu+2)*df + 1 // Theorem 3
	case "NextFit":
		return 2*mu*df + 1 // Theorem 4
	default:
		return math.Inf(1)
	}
}

// Table1LowerBound returns the Table 1 lower bound on the competitive ratio
// of the named policy (d ≥ 1 column).
func Table1LowerBound(policy string, mu float64, d int) float64 {
	df := float64(d)
	switch policy {
	case "MoveToFront":
		return math.Max(2*mu, (mu+1)*df) // Theorem 8
	case "NextFit":
		return 2 * mu * df // Theorem 6
	case "BestFit":
		return math.Inf(1) // unbounded (Theorem 7)
	default: // generic Any Fit (First Fit, Worst Fit, ...)
		return (mu + 1) * df // Theorem 5
	}
}

// AdversarialRow is one measured point of the Table 1 lower-bound study.
type AdversarialRow struct {
	Construction string
	Policy       string
	// Param is the construction's size parameter (k, n or R).
	Param int
	// MeasuredRatio is cost/OPTUpper: a certified lower bound on the true
	// competitive ratio of Policy on this instance.
	MeasuredRatio float64
	// TheoreticalTarget is the bound the construction approaches as
	// Param → ∞.
	TheoreticalTarget float64
	// UpperBound is the Table 1 upper bound (must dominate MeasuredRatio).
	UpperBound float64
	// Cost and OPTUpper are the raw measurements.
	Cost, OPTUpper float64
	// Bins is the number of bins the policy opened.
	Bins int
}

// Consistent reports whether the measurement respects theory:
// ratio ≤ target (the certificate can't exceed the limit it converges to
// from below) and ratio ≤ upper bound.
func (r AdversarialRow) Consistent() bool {
	const slack = 1e-6
	return r.MeasuredRatio <= r.TheoreticalTarget+slack && r.MeasuredRatio <= r.UpperBound+slack
}

// Table1Config parameterises the adversarial study.
type Table1Config struct {
	// D is the dimension for Theorem 5/6 constructions.
	D int
	// Mu is the duration ratio used by the constructions.
	Mu float64
	// Params is the sweep of size parameters (k for Thm 5/6, n for Thm 8,
	// R for the Best Fit family).
	Params []int
	// Seed feeds RandomFit (the only randomised policy).
	Seed int64
	// RunControl supplies the execution knobs (Workers, Ctx, Observer);
	// none of them affect results.
	RunControl
}

// DefaultTable1 returns a sweep matching the theory section's asymptotics.
func DefaultTable1() Table1Config {
	return Table1Config{D: 2, Mu: 10, Params: []int{2, 4, 8, 16, 32, 64}, Seed: 1}
}

// table1Spec pairs one adversarial construction with the policy it targets.
type table1Spec struct {
	make   func() (*adversary.Instance, error)
	policy core.Policy
}

// table1Specs returns the per-parameter construction list. Policies are built
// fresh per call (they are stateful), so concurrent shards never share one.
func table1Specs(cfg Table1Config, k int) []table1Spec {
	return []table1Spec{
		{func() (*adversary.Instance, error) { return adversary.Theorem5(cfg.D, k, cfg.Mu) }, core.NewFirstFit()},
		{func() (*adversary.Instance, error) { return adversary.Theorem5(cfg.D, k, cfg.Mu) }, core.NewMoveToFront()},
		{func() (*adversary.Instance, error) { return adversary.Theorem5(cfg.D, k, cfg.Mu) }, core.NewWorstFit(core.MaxLoad())},
		{func() (*adversary.Instance, error) { return adversary.Theorem6(cfg.D, k, cfg.Mu) }, core.NewNextFit()},
		{func() (*adversary.Instance, error) { return adversary.Theorem8(k, cfg.Mu) }, core.NewMoveToFront()},
		{func() (*adversary.Instance, error) { return adversary.BestFitPillars(k, float64(k*k)) }, core.NewBestFit(core.MaxLoad())},
	}
}

// table1SpecCount is the number of constructions per sweep parameter.
const table1SpecCount = 6

// ShardCount returns the sweep's total shard count: one shard per
// (parameter, construction) pair, flattened as paramIdx*specCount+specIdx —
// the row order of the sequential study.
func (c Table1Config) ShardCount() int { return len(c.Params) * table1SpecCount }

func table1Shard(cfg Table1Config, shard int) (AdversarialRow, error) {
	k := cfg.Params[shard/table1SpecCount]
	if k%2 == 1 {
		k++ // Theorem 6 needs even k; keep sweeps aligned
	}
	sp := table1Specs(cfg, k)[shard%table1SpecCount]
	in, err := sp.make()
	if err != nil {
		return AdversarialRow{}, err
	}
	res, err := core.Simulate(in.List, sp.policy, cfg.observerOpts()...)
	if err != nil {
		return AdversarialRow{}, fmt.Errorf("experiments: %s on %s: %w", sp.policy.Name(), in.Name, err)
	}
	mu := in.List.Mu()
	d := in.List.Dim
	return AdversarialRow{
		Construction:      in.Name,
		Policy:            sp.policy.Name(),
		Param:             k,
		MeasuredRatio:     in.MeasuredRatio(res.Cost),
		TheoreticalTarget: in.AsymptoticRatio,
		UpperBound:        Table1UpperBound(sp.policy.Name(), mu, d),
		Cost:              res.Cost,
		OPTUpper:          in.OPTUpper,
		Bins:              res.BinsOpened,
	}, nil
}

// RunTable1 measures every construction across the parameter sweep, one
// shard per (parameter, construction) pair, and returns the rows in the
// sequential study's order.
func RunTable1(cfg Table1Config) ([]AdversarialRow, error) {
	if cfg.D < 1 || cfg.Mu < 1 || len(cfg.Params) == 0 {
		return nil, fmt.Errorf("experiments: invalid Table1Config %+v", cfg)
	}
	return parallel.MapShards(cfg.ShardCount(), func(_ context.Context, s int) (AdversarialRow, error) {
		return table1Shard(cfg, s)
	}, cfg.runOptions())
}

// Table renders the adversarial study.
func AdversarialTable(rows []AdversarialRow) *report.Table {
	t := &report.Table{
		Title:   "Table 1 lower-bound constructions: measured ratio vs theoretical target",
		Headers: []string{"construction", "policy", "param", "bins", "cost", "OPT<=", "measured CR>=", "target", "upper bound", "consistent"},
	}
	for _, r := range rows {
		ub := "inf"
		if !math.IsInf(r.UpperBound, 1) {
			ub = report.F(r.UpperBound)
		}
		t.AddRow(r.Construction, r.Policy, fmt.Sprintf("%d", r.Param), fmt.Sprintf("%d", r.Bins),
			report.F(r.Cost), report.F(r.OPTUpper), report.F(r.MeasuredRatio),
			report.F(r.TheoreticalTarget), ub, fmt.Sprintf("%v", r.Consistent()))
	}
	return t
}

// UpperBoundCheckConfig parameterises the empirical validation of the
// Table 1 upper bounds on random workloads: for each instance we verify
// cost(alg) ≤ bound(μ, d) · OPTUpper, where OPTUpper is the best offline
// heuristic packing (a valid refutation test since OPT ≤ OPTUpper).
type UpperBoundCheckConfig struct {
	D, N, Mu, T, B int
	Instances      int
	Seed           int64
	// RunControl supplies the execution knobs; none of them affect results.
	RunControl
}

// DefaultUpperBoundCheck uses a smaller grid than Figure 4 because the
// offline packers are O(n²).
func DefaultUpperBoundCheck() UpperBoundCheckConfig {
	return UpperBoundCheckConfig{D: 2, N: 200, Mu: 10, T: 200, B: 100, Instances: 50, Seed: 1}
}

// UpperBoundViolation describes a failed check (none are expected).
type UpperBoundViolation struct {
	Seed   int64
	Policy string
	Cost   float64
	Bound  float64
	OPTUp  float64
}

// RunUpperBoundCheck returns the violations found (expected empty) and the
// number of (instance, policy) pairs checked.
func RunUpperBoundCheck(cfg UpperBoundCheckConfig) ([]UpperBoundViolation, int, error) {
	wcfg := workload.UniformConfig{D: cfg.D, N: cfg.N, Mu: cfg.Mu, T: cfg.T, B: cfg.B}
	if err := wcfg.Validate(); err != nil {
		return nil, 0, err
	}
	type trial struct {
		violations []UpperBoundViolation
		checked    int
	}
	trials, err := parallel.MapShards(cfg.Instances, func(_ context.Context, i int) (trial, error) {
		seed := parallel.SeedFor(cfg.Seed, i)
		l, err := workload.Uniform(wcfg, seed)
		if err != nil {
			return trial{}, err
		}
		up, err := offline.BestUpperEstimate(l)
		if err != nil {
			return trial{}, err
		}
		in, err := core.NewInstance(l)
		if err != nil {
			return trial{}, err
		}
		mu := l.Mu()
		var tr trial
		for _, name := range []string{"MoveToFront", "FirstFit", "NextFit"} {
			p, err := core.NewPolicy(name, seed)
			if err != nil {
				return trial{}, err
			}
			res, err := in.Simulate(p, cfg.costOnlyOpts()...)
			if err != nil {
				return trial{}, err
			}
			bound := Table1UpperBound(name, mu, cfg.D)
			tr.checked++
			if res.Cost > bound*up.Cost+1e-6 {
				tr.violations = append(tr.violations, UpperBoundViolation{
					Seed: seed, Policy: name, Cost: res.Cost, Bound: bound, OPTUp: up.Cost,
				})
			}
		}
		return tr, nil
	}, cfg.runOptions())
	if err != nil {
		return nil, 0, err
	}
	var out []UpperBoundViolation
	checked := 0
	for _, tr := range trials {
		out = append(out, tr.violations...)
		checked += tr.checked
	}
	return out, checked, nil
}
