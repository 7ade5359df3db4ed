// Command dvbpsim runs one MinUsageTime DVBP simulation and reports the
// packing cost, the Lemma 1 lower bounds and the offline bracket.
//
// Input is either a trace file (-trace, CSV or JSON as produced by
// dvbptrace) or a freshly generated uniform instance (-d/-n/-mu/-T/-B/-seed,
// the paper's Table 2 model).
//
// Examples:
//
//	dvbpsim -d 2 -n 1000 -mu 100 -policy MoveToFront
//	dvbpsim -trace trace.csv -policy ff -bins
//	dvbpsim -d 1 -n 200 -mu 10 -all
//	dvbpsim -policy ff -migrate stranded -migrate-period 10 -migrate-moves 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dvbp/internal/check"
	"dvbp/internal/cli"
	"dvbp/internal/core"
	"dvbp/internal/exactopt"
	"dvbp/internal/faults"
	"dvbp/internal/lowerbound"
	"dvbp/internal/metrics"
	"dvbp/internal/migrate"
	"dvbp/internal/offline"
	"dvbp/internal/report"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (.csv or .json); overrides the generator flags")
		d         = flag.Int("d", 2, "dimensions (generator)")
		n         = flag.Int("n", 1000, "items (generator)")
		mu        = flag.Int("mu", 10, "max item duration (generator)")
		horizon   = flag.Int("T", 1000, "span (generator)")
		binSize   = flag.Int("B", 100, "bin capacity granularity (generator)")
		seed      = flag.Int64("seed", 1, "generator / RandomFit seed")
		policy    = flag.String("policy", "MoveToFront", core.PolicyFlagUsage())
		all       = flag.Bool("all", false, "run all seven standard policies")
		bins      = flag.Bool("bins", false, "print per-bin usage records")
		bracket   = flag.Bool("bracket", true, "compute the offline OPT bracket (O(n^2); disable for huge traces)")
		exact     = flag.Bool("exact", false, "compute exact OPT (exponential; only for small peak concurrency)")
		checkFlag = flag.Bool("check", false, "re-validate every result from first principles (internal/check)")
		metricsF  = flag.Bool("metrics", false, "collect engine metrics per policy and dump JSON + Prometheus snapshots")
		list      = flag.Bool("list", false, "list policy names and exit")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none); on expiry the exit code is 2 and a checkpointed run stays resumable")
		ckptDir   = flag.String("checkpoint-dir", "", "persist the run's op log into this directory; single policy only")
		restoreF  = flag.Bool("restore", false, "resume the run persisted in -checkpoint-dir, re-stepping it from its start against the log's digest marks")
	)
	var spec faults.Spec
	spec.Register(flag.CommandLine, "")
	var mig migrate.Config
	mig.Register(flag.CommandLine, "")
	flag.Parse()

	plan, err := spec.Plan()
	if err != nil {
		fatal(err)
	}
	migOpt, err := mig.Option()
	if err != nil {
		fatal(err)
	}

	if *list {
		fmt.Println(strings.Join(core.PolicySpellings(), "\n"))
		return
	}

	if plan.Active() && *checkFlag {
		fatal(fmt.Errorf("-check validates the fault-free model; it cannot be combined with fault/admission flags"))
	}
	if mig.Enabled() && *checkFlag {
		fatal(fmt.Errorf("-check validates the irrevocable model; it cannot be combined with -migrate"))
	}
	if *ckptDir != "" && *all {
		fatal(fmt.Errorf("-checkpoint-dir persists a single run; it cannot be combined with -all"))
	}
	if *restoreF && *ckptDir == "" {
		fatal(fmt.Errorf("-restore needs the -checkpoint-dir of the interrupted run"))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	l, err := cli.LoadInstance(*tracePath, *d, *n, *mu, *horizon, *binSize, *seed)
	if err != nil {
		fatal(err)
	}

	lb := lowerbound.Compute(l)
	fmt.Printf("instance: d=%d items=%d span=%.4g mu=%.4g\n", l.Dim, l.Len(), l.Span(), l.Mu())
	if plan.Active() {
		fmt.Printf("faults: %s\n", plan)
	}
	if mig.Enabled() {
		fmt.Printf("migration: %s\n", mig)
	}
	fmt.Printf("lower bounds on OPT: integral=%.4f utilization=%.4f span=%.4f\n",
		lb.Integral, lb.Utilization, lb.Span)
	var upCost float64
	if *bracket {
		up, err := offline.BestUpperEstimate(l)
		if err != nil {
			fatal(err)
		}
		upCost = up.Cost
		fmt.Printf("offline upper estimate: %.4f (%s)  =>  OPT in [%.4f, %.4f]\n",
			up.Cost, up.Algorithm, lb.Best(), up.Cost)
	}

	denom := lb.Best() // ratio denominator: exact OPT when available
	if *exact {
		if peak := exactopt.PeakActive(l); peak > exactopt.DefaultMaxActive {
			fatal(fmt.Errorf("exact OPT infeasible: peak concurrency %d exceeds %d", peak, exactopt.DefaultMaxActive))
		}
		opt, err := exactopt.Opt(l, exactopt.Options{})
		if err != nil {
			fatal(err)
		}
		denom = opt
		fmt.Printf("exact OPT: %.4f (ratios below are TRUE competitive ratios)\n", opt)
	}

	var policies []core.Policy
	if *all {
		policies = core.StandardPolicies(*seed)
	} else {
		p, err := core.NewPolicy(*policy, *seed)
		if err != nil {
			fatal(err)
		}
		policies = []core.Policy{p}
	}

	ratioHeader := "cost/LB"
	if *exact {
		ratioHeader = "cost/OPT"
	}
	headers := []string{"policy", "cost", ratioHeader, "bins", "peak bins"}
	if mig.Enabled() {
		headers = append(headers, "migr", "drained", "migr cost")
	}
	if plan.Active() {
		headers = append(headers, "crashes", "evict", "retry", "lost", "reject", "timeout")
	}
	faultStr := ""
	if plan.Active() {
		faultStr = plan.String()
	}
	t := &report.Table{Headers: headers}
	collectors := make(map[string]*metrics.Collector)
	for _, p := range policies {
		opts := append(plan.Options(), migOpt)
		if *metricsF {
			col := metrics.NewCollector()
			collectors[p.Name()] = col
			opts = append(opts, core.WithObserver(col))
		}
		res, err := cli.RunPolicy(ctx, l, p, opts, cli.RunConfig{
			Tool: "dvbpsim", Dir: *ckptDir, Restore: *restoreF, KillAt: -1,
			Seed: *seed, Faults: faultStr, Migration: mig.String(),
		})
		if err != nil {
			fatal(err)
		}
		if *checkFlag {
			if err := check.Result(l, res); err != nil {
				fatal(fmt.Errorf("%s failed validation: %w", p.Name(), err))
			}
		}
		row := []string{res.Algorithm, fmt.Sprintf("%.4f", res.Cost), fmt.Sprintf("%.4f", res.Cost/denom),
			fmt.Sprintf("%d", res.BinsOpened), fmt.Sprintf("%d", res.MaxConcurrentBins)}
		if mig.Enabled() {
			row = append(row, fmt.Sprintf("%d", res.Migrations),
				fmt.Sprintf("%d", res.BinsDrained), fmt.Sprintf("%.4f", res.MigrationCost))
		}
		if plan.Active() {
			row = append(row, fmt.Sprintf("%d", res.Crashes), fmt.Sprintf("%d", res.Evictions),
				fmt.Sprintf("%d", res.Retries), fmt.Sprintf("%d", res.ItemsLost),
				fmt.Sprintf("%d", res.Rejected), fmt.Sprintf("%d", res.TimedOut))
		}
		t.AddRow(row...)
		if *bins {
			for _, b := range res.Bins {
				mark := ""
				if b.Crashed {
					mark = " CRASHED"
				}
				fmt.Printf("  %s bin %d: [%.4g, %.4g) usage=%.4g items=%d%s\n",
					p.Name(), b.BinID, b.OpenedAt, b.ClosedAt, b.Usage(), b.Packed, mark)
			}
		}
	}
	fmt.Print(t.Render())
	if *bracket && upCost > 0 && !*exact {
		fmt.Printf("note: cost/LB overstates the true competitive ratio by at most %.2fx (bracket looseness)\n",
			upCost/lb.Best())
	}
	if *metricsF {
		for _, p := range policies {
			label := ""
			if len(policies) > 1 {
				label = p.Name()
			}
			if err := report.WriteMetrics(os.Stdout, label, collectors[p.Name()].Snapshot()); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	cli.Fatal("dvbpsim", err)
}
