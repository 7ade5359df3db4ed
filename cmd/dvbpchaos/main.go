// Command dvbpchaos runs policy comparisons under failure: server crashes
// from deterministic schedules (seeded MTBF or explicit traces), eviction and
// retry of displaced items, and finite fleets with rejection or an admission
// queue. For every policy it simulates the same workload twice — once clean,
// once under the fault plan — and reports the robustness overhead next to
// the failure accounting.
//
// All schedules are pure functions of their seeds: the same flags produce
// byte-identical output, so runs are replayable and diffable.
//
// Examples:
//
//	dvbpchaos -d 2 -n 1000 -mtbf 50 -retry backoff:1:30 -all
//	dvbpchaos -trace trace.csv -crash-trace '0@5,2+1.5' -policy ff
//	dvbpchaos -n 500 -mtbf 20 -max-servers 10 -queue-deadline 5 -json
//	dvbpchaos -all -mtbf 30 -metrics -timeout 30s
//	dvbpchaos -mtbf 40 -migrate drain-emptiest -migrate-period 5 -migrate-moves 4
//	dvbpchaos -mtbf 50 -checkpoint-dir /tmp/ck -disk-faults 'sync:2:eio,write:5:enospc'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dvbp/internal/cli"
	"dvbp/internal/core"
	"dvbp/internal/faults"
	"dvbp/internal/item"
	"dvbp/internal/metrics"
	"dvbp/internal/migrate"
	"dvbp/internal/persist"
	"dvbp/internal/report"
	"dvbp/internal/vfs"
	"dvbp/internal/workload"
)

// run is one policy's clean-vs-faulty comparison, shaped for JSON output.
type run struct {
	Policy        string  `json:"policy"`
	CleanCost     float64 `json:"clean_cost"`
	FaultyCost    float64 `json:"faulty_cost"`
	Overhead      float64 `json:"overhead"`
	Crashes       int     `json:"crashes"`
	Evictions     int     `json:"evictions"`
	Retries       int     `json:"retries"`
	ItemsLost     int     `json:"items_lost"`
	Migrations    int     `json:"migrations,omitempty"`
	MigrationCost float64 `json:"migration_cost,omitempty"`
	BinsDrained   int     `json:"bins_drained,omitempty"`
	Rejected      int     `json:"rejected"`
	TimedOut      int     `json:"timed_out"`
	QueuedPlaced  int     `json:"queued_placed"`
	QueueDelay    float64 `json:"queue_delay"`
	LostUsageTime float64 `json:"lost_usage_time"`
	Served        int     `json:"served"`
}

type output struct {
	Dim       int     `json:"d"`
	Items     int     `json:"items"`
	Span      float64 `json:"span"`
	Mu        float64 `json:"mu"`
	Faults    string  `json:"faults"`
	Migration string  `json:"migration,omitempty"`
	Runs      []run   `json:"runs"`
	// Partial is set when a -timeout cancelled the sweep before every
	// policy finished; Runs holds the completed prefix.
	Partial bool `json:"partial,omitempty"`
}

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
		all       = flag.Bool("all", false, "run the seven standard policies plus the fragmentation-aware family")
		jsonOut   = flag.Bool("json", false, "emit the comparison as JSON instead of a table")
		metricsF  = flag.Bool("metrics", false, "dump JSON + Prometheus metric snapshots per policy")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the whole sweep (0 = none); partial results are flushed on expiry")
		ckptDir   = flag.String("checkpoint-dir", "", "persist the faulty run (op log + snapshots) into this directory; single policy only")
		ckptEvery = flag.Int64("checkpoint-every", 64, "events between automatic snapshots when -checkpoint-dir is set (0 = none: -restore re-steps the run from its start)")
		restoreF  = flag.Bool("restore", false, "resume the faulty run persisted in -checkpoint-dir instead of starting fresh")
		killAt    = flag.Int64("kill-at", -1, "crash on purpose (exit 3, no cleanup) once this many events are persisted; requires -checkpoint-dir")
		diskF     = flag.String("disk-faults", "", "inject disk faults into the persisted run: comma-separated kind:n:errno triples (kinds "+strings.Join(vfs.SortedKinds(), "/")+", errnos eio/enospc), e.g. 'sync:2:eio,write:5:enospc'; requires -checkpoint-dir")
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
	if !plan.Active() {
		fatal(fmt.Errorf("no fault plan configured: set -mtbf, -crash-trace or -max-servers (this command exists to run chaos; for fault-free runs use dvbpsim)"))
	}
	if (*killAt >= 0 || *restoreF || *diskF != "") && *ckptDir == "" {
		fatal(fmt.Errorf("-kill-at, -restore and -disk-faults act on a persisted run: set -checkpoint-dir"))
	}
	diskPlan, err := vfs.ParsePlan(*diskF)
	if err != nil {
		fatal(err)
	}
	if *ckptDir != "" && *all {
		fatal(fmt.Errorf("-checkpoint-dir persists a single run; it cannot be combined with -all"))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	l, err := loadInstance(*tracePath, *d, *n, *mu, *horizon, *binSize, *seed)
	if err != nil {
		fatal(err)
	}

	var policies []core.Policy
	if *all {
		policies = append(core.StandardPolicies(*seed), core.FragmentationAwarePolicies(*seed)...)
	} else {
		p, err := core.NewPolicy(*policy, *seed)
		if err != nil {
			fatal(err)
		}
		policies = []core.Policy{p}
	}

	out := output{Dim: l.Dim, Items: l.Len(), Span: l.Span(), Mu: l.Mu(),
		Faults: plan.String(), Migration: mig.String()}
	collectors := make(map[string]*metrics.Collector)
	for _, p := range policies {
		if ctx.Err() != nil {
			out.Partial = true
			break
		}
		// Migration, unlike the fault plan, applies to both legs: the
		// overhead column then isolates the cost of failures alone.
		clean, err := core.Simulate(l, p, migOpt)
		if err != nil {
			fatal(err)
		}
		p.Reset()
		opts := append(plan.Options(), migOpt)
		if *metricsF {
			// A manual clock keeps the snapshot free of wall-time noise:
			// chaos runs care about simulated time, and the output stays
			// byte-identical across replays.
			col := metrics.NewCollector(metrics.WithClock(&metrics.Manual{}))
			collectors[p.Name()] = col
			opts = append(opts, core.WithObserver(col))
		}
		var col *metrics.Collector
		if *metricsF {
			col = collectors[p.Name()]
		}
		faulty, err := faultyRun(ctx, l, p, opts, chaosRun{
			dir: *ckptDir, every: *ckptEvery, restore: *restoreF, killAt: *killAt,
			seed: *seed, faults: plan.String(), migration: mig.String(), col: col, diskPlan: diskPlan,
		})
		if err != nil {
			fatal(err)
		}
		served := 0
		for _, o := range faulty.Outcomes {
			if o == core.OutcomeServed {
				served++
			}
		}
		out.Runs = append(out.Runs, run{
			Policy:        faulty.Algorithm,
			CleanCost:     clean.Cost,
			FaultyCost:    faulty.Cost,
			Overhead:      faulty.Cost / clean.Cost,
			Crashes:       faulty.Crashes,
			Evictions:     faulty.Evictions,
			Retries:       faulty.Retries,
			ItemsLost:     faulty.ItemsLost,
			Migrations:    faulty.Migrations,
			MigrationCost: faulty.MigrationCost,
			BinsDrained:   faulty.BinsDrained,
			Rejected:      faulty.Rejected,
			TimedOut:      faulty.TimedOut,
			QueuedPlaced:  faulty.QueuedPlaced,
			QueueDelay:    faulty.QueueDelay,
			LostUsageTime: faulty.LostUsageTime,
			Served:        served,
		})
	}

	if err := flush(out, *jsonOut); err != nil {
		fatal(err)
	}
	if *metricsF {
		for _, p := range policies {
			col, ok := collectors[p.Name()]
			if !ok {
				continue
			}
			label := ""
			if len(policies) > 1 {
				label = p.Name()
			}
			if err := report.WriteMetrics(os.Stdout, label, col.Snapshot()); err != nil {
				fatal(err)
			}
		}
	}
	if out.Partial {
		fmt.Fprintf(os.Stderr, "dvbpchaos: timeout after %v: %d/%d policies completed (partial results above)\n",
			*timeout, len(out.Runs), len(policies))
		os.Exit(cli.ExitTimeout)
	}
}

// chaosRun shapes the faulty leg of one comparison: plain in-memory
// simulation, or one persisted through internal/persist — which is what
// -kill-at crashes mid-flight and -restore brings back.
type chaosRun struct {
	dir       string
	every     int64
	restore   bool
	killAt    int64
	seed      int64
	faults    string
	migration string
	col       *metrics.Collector
	diskPlan  []vfs.Fault
}

// faultyRun executes the faulty leg. In checkpoint mode the op log gets a
// digest mark of the committed events at every sync; -kill-at then dies with
// os.Exit, deliberately skipping every flush and sync, so the directory is
// left exactly as a SIGKILL would leave it.
func faultyRun(ctx context.Context, l *item.List, p core.Policy, opts []core.Option, rc chaosRun) (*core.Result, error) {
	if rc.dir == "" {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return core.Simulate(l, p, opts...)
	}
	pcfg := persist.Config{Dir: rc.dir, Every: rc.every}
	if rc.col != nil {
		pcfg.Aux = []persist.AuxCodec{rc.col.Registry()}
	}
	var inj *vfs.Injector
	if len(rc.diskPlan) > 0 {
		// Disk chaos rides the same seam the tests use: an injector over the
		// real filesystem fails the planned operations, and the persist
		// layer's absorb-and-retry machinery has to ride them out. The final
		// result must be byte-identical to a clean run — the plan summary on
		// stderr shows what was survived.
		inj = vfs.NewInjector(vfs.OS{}, rc.diskPlan...)
		pcfg.FS = inj
	}
	var s *persist.Session
	if rc.restore {
		rec, err := persist.Recover(l, pcfg, opts...)
		if err != nil {
			return nil, err
		}
		for _, ce := range rec.Corruptions {
			fmt.Fprintln(os.Stderr, "dvbpchaos: tolerated:", ce)
		}
		fmt.Fprintf(os.Stderr, "dvbpchaos: resumed at event %d (snapshot %d + %d replayed)\n",
			rec.Session.Engine().EventSeq(), rec.SnapshotSeq, rec.Replayed)
		s = rec.Session
	} else {
		e, err := core.NewEngine(l, p, opts...)
		if err != nil {
			return nil, err
		}
		meta := persist.NewRunMeta(l, p.Name(), rc.seed, rc.faults)
		meta.Migration = rc.migration
		s, err = persist.Begin(e, meta, pcfg)
		if err != nil {
			e.Close()
			return nil, err
		}
	}
	for {
		if rc.killAt >= 0 && s.Engine().EventSeq() >= rc.killAt {
			fmt.Fprintf(os.Stderr, "dvbpchaos: kill-at %d reached: dying without cleanup\n", rc.killAt)
			os.Exit(cli.ExitKilled)
		}
		if err := ctx.Err(); err != nil {
			s.Close()
			return nil, err
		}
		_, ok, err := s.Step()
		if err != nil {
			s.Close()
			return nil, err
		}
		if !ok {
			if inj != nil {
				st := s.TakeIOStats()
				fmt.Fprintf(os.Stderr, "dvbpchaos: disk weather: %d absorbed sync failures, %d skipped checkpoints\n",
					st.SyncFailures, st.CheckpointsSkipped)
			}
			return s.Finish()
		}
	}
}

// flush writes the comparison, as JSON or as the human-readable header+table.
func flush(out output, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("instance: d=%d items=%d span=%.4g mu=%.4g\n", out.Dim, out.Items, out.Span, out.Mu)
	fmt.Printf("faults: %s\n", out.Faults)
	if out.Migration != "" {
		fmt.Printf("migration: %s\n", out.Migration)
	}
	headers := []string{
		"policy", "clean cost", "faulty cost", "overhead",
		"crashes", "evict", "retry", "lost",
	}
	if out.Migration != "" {
		headers = append(headers, "migr", "drained", "migr cost")
	}
	headers = append(headers, "reject", "timeout", "served")
	t := &report.Table{Headers: headers}
	for _, r := range out.Runs {
		row := []string{r.Policy,
			fmt.Sprintf("%.4f", r.CleanCost), fmt.Sprintf("%.4f", r.FaultyCost),
			fmt.Sprintf("%.4fx", r.Overhead),
			fmt.Sprintf("%d", r.Crashes), fmt.Sprintf("%d", r.Evictions),
			fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.ItemsLost),
		}
		if out.Migration != "" {
			row = append(row, fmt.Sprintf("%d", r.Migrations),
				fmt.Sprintf("%d", r.BinsDrained), fmt.Sprintf("%.4f", r.MigrationCost))
		}
		row = append(row, fmt.Sprintf("%d", r.Rejected), fmt.Sprintf("%d", r.TimedOut),
			fmt.Sprintf("%d/%d", r.Served, out.Items))
		t.AddRow(row...)
	}
	fmt.Print(t.Render())
	return nil
}

func loadInstance(path string, d, n, mu, horizon, binSize int, seed int64) (*item.List, error) {
	if path == "" {
		return workload.Uniform(workload.UniformConfig{D: d, N: n, Mu: mu, T: horizon, B: binSize}, seed)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return workload.ReadJSON(f)
	}
	return workload.ReadCSV(f)
}

func fatal(err error) {
	cli.Fatal("dvbpchaos", err)
}
