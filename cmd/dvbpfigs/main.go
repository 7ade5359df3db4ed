// Command dvbpfigs regenerates the paper's illustrative figures as SVG from
// real simulation runs:
//
//	Figure 1 — Move To Front usage periods decomposed into leading and
//	           non-leading intervals (Section 3's decomposition);
//	Figure 2 — First Fit usage periods decomposed into P_i and Q_i
//	           (Section 4's decomposition);
//	Figure 3 — per-bin loads over time on the Theorem 5 adversarial
//	           instance (Section 6's illustration);
//	plus a packing Gantt chart of any instance, the fragmentation
//	head-to-head (DESIGN.md §13): a cost/LB chart across trace models and a
//	markdown table whose ranking flips show the FARB-style trace dependence,
//	and the budgeted-defragmentation study (DESIGN.md §14): a net-of-cost
//	gain chart plus a markdown report of every policy's migrating leg against
//	its irrevocable baseline.
//
// Each figure is an independent shard, except that a study's chart and
// report are one shard over one run of the study, and -workers renders the
// shards in parallel. Every shard re-simulates its own policy instances from
// the seed, so output bytes are identical for any worker count (DESIGN.md
// §9).
//
//	dvbpfigs -out figures
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dvbp/internal/adversary"
	"dvbp/internal/analysis"
	"dvbp/internal/core"
	"dvbp/internal/experiments"
	"dvbp/internal/gantt"
	"dvbp/internal/parallel"
	"dvbp/internal/workload"
)

func main() {
	var (
		outDir  = flag.String("out", "figures", "output directory")
		seed    = flag.Int64("seed", 11, "workload seed for figures 1/2")
		n       = flag.Int("n", 24, "items in the random instance for figures 1/2")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	)
	flag.Parse()
	wrote, err := renderFigures(*outDir, *seed, *n, *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d figures to %s/\n", wrote, *outDir)
}

// figure is one shard: the files it writes plus a self-contained renderer
// that re-simulates everything it needs (no shared mutable state, so shards
// can run concurrently and in any order) and returns their contents in
// names order.
type figure struct {
	names  []string
	render func() ([]string, error)
}

// one is the shard that writes a single file.
func one(name string, render func() (string, error)) figure {
	return figure{[]string{name}, func() ([]string, error) {
		out, err := render()
		return []string{out}, err
	}}
}

// figures lists the shards in shard-index order.
func figures(seed int64, n int) ([]figure, error) {
	l, err := workload.Uniform(workload.UniformConfig{D: 1, N: n, Mu: 8, T: 40, B: 10}, seed)
	if err != nil {
		return nil, err
	}
	return []figure{
		one("figure1_mtf_decomposition.svg", func() (string, error) {
			mtf := core.NewMoveToFront()
			dec := analysis.NewMTFDecomposition(mtf)
			res, err := core.Simulate(l, mtf, core.WithObserver(dec))
			if err != nil {
				return "", err
			}
			if err := dec.Verify(res); err != nil {
				return "", err
			}
			return gantt.MTFFigure1(l, res, dec, gantt.Options{Title: "Figure 1: Move To Front leading/non-leading decomposition"}), nil
		}),
		one("figure2_ff_decomposition.svg", func() (string, error) {
			res, err := core.Simulate(l, core.NewFirstFit())
			if err != nil {
				return "", err
			}
			if err := analysis.VerifyFFDecomposition(res); err != nil {
				return "", err
			}
			return gantt.FFFigure2(l, res, gantt.Options{Title: "Figure 2: First Fit P/Q decomposition"}), nil
		}),
		one("figure3_theorem5_loads.svg", func() (string, error) {
			// Loads on the Theorem 5 instance at t=0.5 (R0 packed), t just
			// after R1 lands, and deep in the long phase.
			in, err := adversary.Theorem5(2, 3, 5)
			if err != nil {
				return "", err
			}
			res, err := core.Simulate(in.List, core.NewFirstFit())
			if err != nil {
				return "", err
			}
			return gantt.LoadFigure3(in.List, res, []float64{0.5, 0.9995, 3}, gantt.Options{
				Title: "Figure 3: bin loads on the Theorem 5 instance (d=2, k=3, mu=5)",
			}), nil
		}),
		one("packing_gantt.svg", func() (string, error) {
			res, err := core.Simulate(l, core.NewMoveToFront())
			if err != nil {
				return "", err
			}
			return gantt.Packing(l, res, gantt.Options{Title: "Move To Front packing", ShowItemIDs: true}), nil
		}),
		{[]string{"fragmentation_ranking.svg", "fragmentation_headtohead.md"}, func() ([]string, error) {
			study, err := runFragStudy(seed)
			if err != nil {
				return nil, err
			}
			return []string{study.Chart().SVG(), fragMarkdown(study)}, nil
		}},
		{[]string{"defrag_gain.svg", "defrag_study.md"}, func() ([]string, error) {
			study, err := runDefragStudy(seed)
			if err != nil {
				return nil, err
			}
			return []string{study.Chart().SVG(), defragMarkdown(study)}, nil
		}},
	}, nil
}

// runFragStudy runs the fragmentation head-to-head at figure scale, once
// for its chart and report, with Workers=1 so output bytes do not depend on
// the outer scheduler.
func runFragStudy(seed int64) (*experiments.FragStudy, error) {
	cfg := experiments.DefaultFrag()
	cfg.Instances = 20
	cfg.Seed = seed
	cfg.Workers = 1
	return experiments.RunFrag(cfg)
}

// fragMarkdown renders the head-to-head as a markdown document: one table
// per trace model plus the uniform-vs-azure ranking flips — the FARB-style
// evidence that policy rankings do not transfer between trace models.
func fragMarkdown(study *experiments.FragStudy) string {
	var b strings.Builder
	b.WriteString("# Fragmentation head-to-head\n\n")
	b.WriteString("Mean cost/LB and waste/fragmentation account per policy and trace model\n")
	b.WriteString("(see DESIGN.md §13 for the metric definitions).\n")
	for _, trace := range study.Traces {
		fmt.Fprintf(&b, "\n## %s\n\n%s", trace, study.Table(trace).Markdown())
		fmt.Fprintf(&b, "\nranking: %s\n", strings.Join(study.Ranking(trace), " < "))
	}
	b.WriteString("\n## Ranking flips: uniform vs azure\n\n")
	flips := study.Flips("uniform", "azure", 0.01)
	if len(flips) == 0 {
		b.WriteString("none above the noise gap\n")
		return b.String()
	}
	for _, f := range flips {
		fmt.Fprintf(&b, "- %s beats %s on %s (by %.4f) but loses on %s (by %.4f)\n",
			f.A, f.B, f.TraceA, f.GapA, f.TraceB, f.GapB)
	}
	return b.String()
}

// runDefragStudy runs the budgeted-defragmentation study at figure scale,
// with the same Workers=1 byte-determinism contract as runFragStudy.
func runDefragStudy(seed int64) (*experiments.DefragStudy, error) {
	cfg := experiments.DefaultDefrag()
	cfg.Instances = 8
	cfg.Seed = seed
	cfg.Workers = 1
	return experiments.RunDefrag(cfg)
}

// defragMarkdown renders the defragmentation study as a markdown document:
// one table per trace model plus the improved / net-win policy lists that
// summarise whether the budgeted moves paid for themselves.
func defragMarkdown(study *experiments.DefragStudy) string {
	var b strings.Builder
	b.WriteString("# Budgeted defragmentation\n\n")
	fmt.Fprintf(&b, "Migration: %s. Every policy runs each trace twice — irrevocable\n", study.Migration)
	b.WriteString("baseline vs budgeted consolidation — and the migration cost is reported\n")
	b.WriteString("next to the gains (see DESIGN.md §14 for the model).\n")
	for _, trace := range study.Traces {
		fmt.Fprintf(&b, "\n## %s\n\n%s", trace, study.Table(trace).Markdown())
		fmt.Fprintf(&b, "\nimproved usage-time or stranded·time: %s\n", policyList(study.Improved(trace)))
		fmt.Fprintf(&b, "net wins after paying migration cost: %s\n", policyList(study.NetWins(trace)))
	}
	return b.String()
}

// policyList joins a policy list for prose, spelling out the empty case.
func policyList(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// renderFigures renders every figure into outDir through the shard
// scheduler and returns how many files were written.
func renderFigures(outDir string, seed int64, n, workers int) (int, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return 0, err
	}
	figs, err := figures(seed, n)
	if err != nil {
		return 0, err
	}
	wrote := 0
	for _, f := range figs {
		wrote += len(f.names)
	}
	err = parallel.Run(len(figs), func(_ context.Context, i int) error {
		f := figs[i]
		outs, err := f.render()
		if err != nil {
			return fmt.Errorf("%s: %w", strings.Join(f.names, ", "), err)
		}
		for k, name := range f.names {
			if err := os.WriteFile(filepath.Join(outDir, name), []byte(outs[k]), 0o644); err != nil {
				return err
			}
		}
		return nil
	}, parallel.RunOptions{Workers: workers})
	if err != nil {
		return 0, err
	}
	return wrote, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvbpfigs:", err)
	os.Exit(1)
}
