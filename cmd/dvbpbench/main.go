// Command dvbpbench regenerates the paper's evaluation end to end:
//
//	-experiment fig4                 Figure 4 (all three panels or -d one)
//	-experiment table1               Table 1 lower-bound constructions
//	-experiment ubcheck              Table 1 upper-bound validation
//	-experiment trueratio            true ratios via exact OPT
//	-experiment quality              packing-vs-alignment metrics
//	-experiment ablation-bestfit     Best Fit load-measure ablation
//	-experiment ablation-clairvoyant clairvoyant-vs-online ablation
//	-experiment ablation-billing     billing-granularity ablation
//	-experiment frag                 fragmentation head-to-head across trace models
//	-experiment defrag               budgeted defragmentation vs irrevocable baseline
//	-experiment all                  everything above
//
// The full paper grid (-instances 1000) reproduces Table 2 exactly; smaller
// -instances values keep the shape with wider error bars. Results print as
// ASCII tables and, with -out DIR, are also written as CSV and SVG.
//
// Parallelism: every experiment runs in this one process, its trials spread
// over -workers goroutines; output is byte-identical for every -workers value
// (DESIGN.md §9).
//
// Observability: -metrics attaches a shared metrics.Collector to every
// simulation the chosen experiments run and dumps aggregate JSON +
// Prometheus-text snapshots at the end (also into -out as metrics.json /
// metrics.prom). -cpuprofile and -memprofile write pprof profiles alongside
// the benchmark numbers, and -pprof ADDR serves net/http/pprof live while
// the run executes (e.g. -pprof localhost:6060).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dvbp/internal/cli"
	"dvbp/internal/core"
	"dvbp/internal/experiments"
	"dvbp/internal/metrics"
	"dvbp/internal/migrate"
	"dvbp/internal/report"
)

// collector is the run-wide metrics collector (nil without -metrics).
var collector *metrics.Collector

// observer returns the collector as a core.Observer, or a nil interface so
// experiment configs treat it as absent.
func observer() core.Observer {
	if collector == nil {
		return nil
	}
	return collector
}

// cleanup flushes profiles; fatal runs it before exiting so -cpuprofile
// output survives failed runs.
var cleanup = func() {}

// benchCtx carries the -timeout deadline into every experiment; experiments
// thread it to internal/parallel, which cancels outstanding trials.
var benchCtx = context.Background()

// outDirGlobal mirrors -out so fatal can flush partial metrics on timeout.
var outDirGlobal string

func main() {
	var (
		experiment = flag.String("experiment", "fig4", "fig4 | table1 | ubcheck | trueratio | quality | ablation-bestfit | ablation-clairvoyant | ablation-billing | frag | defrag | all")
		dFlag      = flag.Int("d", 0, "restrict fig4 to one dimension panel (0 = all of 1,2,5)")
		instances  = flag.Int("instances", 1000, "instances per cell (paper: 1000)")
		mus        = flag.String("mus", "1,2,5,10,100,200", "comma-separated mu sweep")
		seed       = flag.Int64("seed", 1, "master seed")
		workers    = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		outDir     = flag.String("out", "", "directory for CSV/SVG artefacts (optional)")
		metricsF   = flag.Bool("metrics", false, "collect engine metrics across all runs and dump JSON + Prometheus snapshots")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address while running (e.g. localhost:6060)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); on expiry profiles and partial metrics are flushed and the exit code is 2")

		benchJSON     = flag.String("benchjson", "", "convert `go test -bench` output from this file (- = stdin) to JSON and exit; see make bench-json")
		benchJSONBase = flag.String("benchjson-baseline", "", "optional second -bench output embedded as the baseline section")
		benchJSONOut  = flag.String("benchjson-out", "", "destination for -benchjson output (default stdout)")

		serveLoad    = flag.String("serve-load", "", "drive placement load against the dvbpserver at this base URL, recording acknowledgements to -serve-acks, then exit")
		serveVerify  = flag.String("serve-verify", "", "verify every acknowledgement in -serve-acks against the dvbpserver at this base URL, then exit")
		serveAcks    = flag.String("serve-acks", "", "JSON-lines acknowledgement file shared by -serve-load and -serve-verify")
		serveTenants = flag.Int("serve-tenants", 4, "tenants -serve-load creates and drives")
		serveItems   = flag.Int("serve-items", 400, "placements per tenant for -serve-load")
		serveDim     = flag.Int("serve-d", 2, "item dimensions for -serve-load tenants")
	)
	// -migrate/-migrate-period/-migrate-moves/-migrate-cost override the
	// defrag experiment's default budgeted configuration.
	var mig migrate.Config
	mig.Register(flag.CommandLine, "")
	flag.Parse()

	if *serveLoad != "" || *serveVerify != "" {
		if *serveLoad != "" && *serveVerify != "" {
			fatal(fmt.Errorf("-serve-load and -serve-verify are separate passes; run them one at a time"))
		}
		var err error
		if *serveLoad != "" {
			err = runServeLoad(*serveLoad, *serveAcks, *serveTenants, *serveItems, *serveDim, *seed)
		} else {
			err = runServeVerify(*serveVerify, *serveAcks)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, *benchJSONBase, *benchJSONOut); err != nil {
			fatal(err)
		}
		return
	}

	outDirGlobal = *outDir
	if *timeout > 0 {
		var cancel context.CancelFunc
		benchCtx, cancel = context.WithTimeout(benchCtx, *timeout)
		defer cancel()
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *metricsF {
		collector = metrics.NewCollector()
	}
	startProfiling(*cpuProfile, *memProfile, *pprofAddr)
	defer runCleanup()

	run := func(name string) {
		switch name {
		case "fig4":
			runFigure4(*dFlag, *instances, *mus, *seed, *workers, *outDir)
		case "table1":
			runTable1(*seed, *workers, *outDir)
		case "ubcheck":
			runUBCheck(*instances, *seed, *workers)
		case "ablation-bestfit":
			runAblationBestFit(*instances, *seed, *workers, *outDir)
		case "ablation-clairvoyant":
			runAblationClairvoyant(*instances, *seed, *workers, *outDir)
		case "ablation-billing":
			runAblationBilling(*instances, *seed, *workers, *outDir)
		case "trueratio":
			runTrueRatio(*instances, *seed, *workers, *outDir)
		case "quality":
			runQuality(*instances, *seed, *workers, *outDir)
		case "frag":
			runFrag(*instances, *seed, *workers, *outDir)
		case "defrag":
			runDefrag(*instances, *seed, *workers, *outDir, mig)
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}
	if *experiment == "all" {
		for _, e := range []string{"fig4", "table1", "ubcheck", "trueratio", "quality", "frag", "defrag", "ablation-bestfit", "ablation-clairvoyant", "ablation-billing"} {
			if err := benchCtx.Err(); err != nil {
				fatal(err)
			}
			run(e)
		}
	} else {
		run(*experiment)
	}

	if collector != nil {
		dumpMetrics(*outDir)
	}
}

// startProfiling wires the requested profiling sinks and installs cleanup.
func startProfiling(cpuProfile, memProfile, pprofAddr string) {
	if pprofAddr != "" {
		go func() {
			// The blank net/http/pprof import registers its handlers on the
			// default mux.
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dvbpbench: pprof server:", err)
			}
		}()
	}
	var cpuFile *os.File
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	cleanup = func() {
		cleanup = func() {}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memProfile != "" {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dvbpbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush garbage so the heap profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvbpbench:", err)
			}
		}
	}
}

func runCleanup() { cleanup() }

// dumpMetrics prints the aggregate snapshot and, with -out, writes
// metrics.json and metrics.prom next to the CSV/SVG artefacts.
func dumpMetrics(outDir string) {
	s := collector.Snapshot()
	if err := report.WriteMetrics(os.Stdout, "", s); err != nil {
		fatal(err)
	}
	if outDir != "" {
		writeFile(outDir, "metrics.json", s.JSON()+"\n")
		writeFile(outDir, "metrics.prom", s.Prometheus())
	}
}

func parseMus(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			fatal(fmt.Errorf("bad mu value %q", f))
		}
		out = append(out, v)
	}
	return out
}

func runFigure4(d, instances int, mus string, seed int64, workers int, outDir string) {
	cfg := experiments.DefaultFigure4()
	cfg.Instances = instances
	cfg.Mus = parseMus(mus)
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Observer = observer()
	cfg.Ctx = benchCtx
	if d != 0 {
		cfg.Ds = []int{d}
	}
	fmt.Printf("== Figure 4: d=%v mu=%v instances=%d (n=%d T=%d B=%d) ==\n",
		cfg.Ds, cfg.Mus, cfg.Instances, cfg.N, cfg.T, cfg.B)
	res, err := experiments.RunFigure4(cfg)
	if err != nil {
		fatal(err)
	}
	for _, dd := range cfg.Ds {
		tbl := res.Table(dd)
		fmt.Print(tbl.Render())
		fmt.Printf("ranking at mu=%d: %s\n\n", cfg.Mus[len(cfg.Mus)-1],
			strings.Join(res.Ranking(dd, cfg.Mus[len(cfg.Mus)-1]), " < "))
		if outDir != "" {
			writeCSV(outDir, fmt.Sprintf("figure4_d%d.csv", dd), tbl)
			writeFile(outDir, fmt.Sprintf("figure4_d%d.svg", dd), res.Chart(dd).SVG())
		}
	}
}

func runTable1(seed int64, workers int, outDir string) {
	cfg := experiments.DefaultTable1()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Observer = observer()
	cfg.Ctx = benchCtx
	fmt.Printf("== Table 1 lower-bound constructions: d=%d mu=%g params=%v ==\n", cfg.D, cfg.Mu, cfg.Params)
	rows, err := experiments.RunTable1(cfg)
	if err != nil {
		fatal(err)
	}
	tbl := experiments.AdversarialTable(rows)
	fmt.Print(tbl.Render())
	bad := 0
	for _, r := range rows {
		if !r.Consistent() {
			bad++
		}
	}
	fmt.Printf("consistency: %d/%d rows respect the Table 1 bounds\n\n", len(rows)-bad, len(rows))
	if outDir != "" {
		writeCSV(outDir, "table1_adversarial.csv", tbl)
	}
}

func runUBCheck(instances int, seed int64, workers int) {
	cfg := experiments.DefaultUpperBoundCheck()
	if instances < cfg.Instances {
		cfg.Instances = instances
	}
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Observer = observer()
	cfg.Ctx = benchCtx
	fmt.Printf("== Table 1 upper-bound validation: %d instances of d=%d n=%d mu=%d ==\n",
		cfg.Instances, cfg.D, cfg.N, cfg.Mu)
	viol, checked, err := experiments.RunUpperBoundCheck(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("checked %d (instance, policy) pairs: %d violations\n\n", checked, len(viol))
	for _, v := range viol {
		fmt.Printf("  VIOLATION: %+v\n", v)
	}
}

func ablationCfg(instances int, seed int64, workers int) experiments.AblationConfig {
	cfg := experiments.DefaultAblation()
	if instances < cfg.Instances {
		cfg.Instances = instances
	}
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Observer = observer()
	cfg.Ctx = benchCtx
	return cfg
}

func runAblationBestFit(instances int, seed int64, workers int, outDir string) {
	cfg := ablationCfg(instances, seed, workers)
	fmt.Printf("== Ablation: Best Fit load measure (d=%d mu=%d, %d instances) ==\n", cfg.D, cfg.Mu, cfg.Instances)
	m, err := experiments.RunBestFitMeasureAblation(cfg)
	if err != nil {
		fatal(err)
	}
	tbl := experiments.SummaryTable("Best Fit load measures", []string{"BestFit", "BestFit-L1", "BestFit-Lp2"}, m)
	fmt.Print(tbl.Render())
	fmt.Println()
	if outDir != "" {
		writeCSV(outDir, "ablation_bestfit.csv", tbl)
	}
}

func runAblationClairvoyant(instances int, seed int64, workers int, outDir string) {
	cfg := ablationCfg(instances, seed, workers)
	fmt.Printf("== Ablation: clairvoyant extensions (d=%d mu=%d, %d instances) ==\n", cfg.D, cfg.Mu, cfg.Instances)
	m, err := experiments.RunClairvoyanceAblation(cfg)
	if err != nil {
		fatal(err)
	}
	tbl := experiments.SummaryTable("Clairvoyant vs non-clairvoyant",
		[]string{"MoveToFront", "FirstFit", "DurationClassFit", "WindowedClassFit", "AlignedBestFit"}, m)
	fmt.Print(tbl.Render())
	fmt.Println()
	if outDir != "" {
		writeCSV(outDir, "ablation_clairvoyant.csv", tbl)
	}
}

func runAblationBilling(instances int, seed int64, workers int, outDir string) {
	cfg := ablationCfg(instances, seed, workers)
	const quantum = 10.0
	fmt.Printf("== Ablation: billing granularity (quantum=%g, d=%d mu=%d, %d instances) ==\n",
		quantum, cfg.D, cfg.Mu, cfg.Instances)
	rows, err := experiments.RunBillingAblation(cfg, quantum)
	if err != nil {
		fatal(err)
	}
	tbl := experiments.BillingTable(rows, quantum)
	fmt.Print(tbl.Render())
	fmt.Println()
	if outDir != "" {
		writeCSV(outDir, "ablation_billing.csv", tbl)
	}
}

func runTrueRatio(instances int, seed int64, workers int, outDir string) {
	cfg := experiments.DefaultTrueRatio()
	if instances < cfg.Instances {
		cfg.Instances = instances
	}
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Observer = observer()
	cfg.Ctx = benchCtx
	fmt.Printf("== True competitive ratios via exact OPT (d=%d n=%d mu=%d, %d instances) ==\n",
		cfg.D, cfg.N, cfg.Mu, cfg.Instances)
	res, err := experiments.RunTrueRatio(cfg)
	if err != nil {
		fatal(err)
	}
	tbl := res.Table()
	fmt.Print(tbl.Render())
	fmt.Println()
	if outDir != "" {
		writeCSV(outDir, "trueratio.csv", tbl)
	}
}

func runFrag(instances int, seed int64, workers int, outDir string) {
	cfg := experiments.DefaultFrag()
	if instances < cfg.Instances {
		cfg.Instances = instances
	}
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Observer = observer()
	cfg.Ctx = benchCtx
	fmt.Printf("== Fragmentation head-to-head (d=%d horizon=%g, %d instances per trace model) ==\n",
		cfg.D, cfg.Horizon, cfg.Instances)
	study, err := experiments.RunFrag(cfg)
	if err != nil {
		fatal(err)
	}
	for _, trace := range study.Traces {
		tbl := study.Table(trace)
		fmt.Print(tbl.Render())
		fmt.Printf("ranking on %s: %s\n\n", trace, strings.Join(study.Ranking(trace), " < "))
		if outDir != "" {
			writeCSV(outDir, fmt.Sprintf("frag_%s.csv", trace), tbl)
		}
	}
	flips := study.Flips("uniform", "azure", 0.01)
	fmt.Printf("ranking flips uniform vs azure (gap > 0.01): %d\n", len(flips))
	for _, f := range flips {
		fmt.Printf("  %s beats %s on %s (by %.4f) but loses on %s (by %.4f)\n",
			f.A, f.B, f.TraceA, f.GapA, f.TraceB, f.GapB)
	}
	fmt.Println()
	if outDir != "" {
		writeFile(outDir, "frag_ranking.svg", study.Chart().SVG())
	}
}

func runDefrag(instances int, seed int64, workers int, outDir string, mig migrate.Config) {
	cfg := experiments.DefaultDefrag()
	if instances < cfg.Instances {
		cfg.Instances = instances
	}
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Observer = observer()
	cfg.Ctx = benchCtx
	if mig.Enabled() {
		cfg.Migration = mig
	}
	fmt.Printf("== Budgeted defragmentation (d=%d horizon=%g, %d instances per trace model, %s) ==\n",
		cfg.D, cfg.Horizon, cfg.Instances, cfg.Migration)
	study, err := experiments.RunDefrag(cfg)
	if err != nil {
		fatal(err)
	}
	for _, trace := range study.Traces {
		tbl := study.Table(trace)
		fmt.Print(tbl.Render())
		improved, net := study.Improved(trace), study.NetWins(trace)
		fmt.Printf("improved usage-time or stranded·time on %s: %d/%d policies (%s)\n",
			trace, len(improved), len(study.Policies), strings.Join(improved, ", "))
		fmt.Printf("net wins after paying migration cost on %s: %d/%d policies (%s)\n\n",
			trace, len(net), len(study.Policies), strings.Join(net, ", "))
		if outDir != "" {
			writeCSV(outDir, fmt.Sprintf("defrag_%s.csv", trace), tbl)
		}
	}
	if outDir != "" {
		writeFile(outDir, "defrag_gain.svg", study.Chart().SVG())
	}
}

func runQuality(instances int, seed int64, workers int, outDir string) {
	cfg := ablationCfg(instances, seed, workers)
	fmt.Printf("== Packing vs alignment (d=%d mu=%d, %d instances) ==\n", cfg.D, cfg.Mu, cfg.Instances)
	rows, err := experiments.RunQuality(cfg)
	if err != nil {
		fatal(err)
	}
	tbl := experiments.QualityTable(rows)
	fmt.Print(tbl.Render())
	fmt.Println()
	if outDir != "" {
		writeCSV(outDir, "quality.csv", tbl)
	}
}

func writeCSV(dir, name string, tbl *report.Table) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		fatal(err)
	}
}

func writeFile(dir, name, content string) {
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	cleanup() // flush any open CPU/heap profile before exiting
	if cli.ExitCode(err) == cli.ExitTimeout {
		// The -timeout budget expired: flush whatever metrics accumulated so
		// the partial run is still inspectable, then exit distinctly.
		if collector != nil {
			dumpMetrics(outDirGlobal)
		}
		err = fmt.Errorf("timeout: %w", err)
	}
	cli.Fatal("dvbpbench", err)
}
