package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/lowerbound"
	"dvbp/internal/metrics"
	"dvbp/internal/parallel"
	"dvbp/internal/stats"
	"dvbp/internal/workload"
)

// tinyFig4 is the grid used by the scheduling tests: small enough that every
// worker-count variant runs in well under a second, large enough that the
// workers' claims interleave.
func tinyFig4() Figure4Config {
	return Figure4Config{
		Ds:        []int{1, 2},
		Mus:       []int{1, 10},
		Instances: 6,
		N:         120,
		T:         120,
		B:         100,
		Policies:  []string{"MoveToFront", "FirstFit", "RandomFit"},
		Seed:      7,
	}
}

// TestFigure4SweepByteIdenticalAcrossWorkerCounts is the determinism
// regression test: the dense ratios must equal the sequential reference's
// bit for bit, whatever the scheduler's parallelism.
func TestFigure4SweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	_, want, err := runFigure4Sequential(tinyFig4())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := tinyFig4()
		cfg.Workers = w
		sweep, err := RunFigure4Sweep(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got, err := sweep.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d ratios, want %d", w, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: ratio %d = %v, sequential %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestFigure4ShardedMatchesSequential is the differential test: the
// parallel per-instance runner must reproduce the single-goroutine reference
// implementation exactly — every cell summary bit-identical, which implies
// per-policy usage-time totals are too.
func TestFigure4ShardedMatchesSequential(t *testing.T) {
	cfg := tinyFig4()
	cfg.Workers = 4
	sharded, err := RunFigure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := runFigure4Sequential(tinyFig4())
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Cells) != len(seq.Cells) {
		t.Fatalf("cell count %d vs %d", len(sharded.Cells), len(seq.Cells))
	}
	for cell, want := range seq.Cells {
		got, ok := sharded.Cells[cell]
		if !ok {
			t.Fatalf("cell %+v missing from sharded result", cell)
		}
		if got != want {
			t.Errorf("cell %+v: sharded %+v != sequential %+v", cell, got, want)
		}
	}
}

// TestTable1RowsIdenticalAcrossWorkerCounts covers the adversarial study:
// the rows, including their +Inf bounds, must not depend on scheduler
// parallelism.
func TestTable1RowsIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []AdversarialRow {
		cfg := Table1Config{D: 2, Mu: 5, Params: []int{2, 4, 8}, Seed: 1}
		cfg.Workers = workers
		rows, err := RunTable1(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	want := run(1)
	if len(want) != 3*table1SpecCount {
		t.Fatalf("%d rows, want %d", len(want), 3*table1SpecCount)
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: table1 rows differ from workers=1", w)
		}
	}
}

// TestSharedCollectorScopedPerRun runs a parallel sweep against one shared
// metrics Collector and requires EXACT counter totals: every simulation must
// have received its own run-scoped view (a shared placement-matching map
// would drop or cross-pair observations under concurrency).
func TestSharedCollectorScopedPerRun(t *testing.T) {
	col := metrics.NewCollector()
	cfg := tinyFig4()
	cfg.Workers = 4
	cfg.Observer = col
	if _, err := RunFigure4(cfg); err != nil {
		t.Fatal(err)
	}
	shards := cfg.ShardCount()
	snap := col.Snapshot()
	if m, _ := snap.Find(metrics.MetricItemsPlaced); m.Value != float64(shards*cfg.N) {
		t.Errorf("items placed = %v, want %d", m.Value, shards*cfg.N)
	}
	if m, _ := snap.Find(metrics.MetricPlacementSeconds); m.Count != uint64(shards*cfg.N) {
		t.Errorf("placement observations = %d, want %d (views not per-run?)", m.Count, shards*cfg.N)
	}
	if m, _ := snap.Find(metrics.MetricOpenBins); m.Value != 0 {
		t.Errorf("open bins = %v, want 0 after all runs closed", m.Value)
	}
}

// TestConcurrentExperimentsShareNothing runs several full experiments at
// once; results must match a lone run exactly (no cross-talk through package
// state), and -race must stay silent.
func TestConcurrentExperimentsShareNothing(t *testing.T) {
	want, err := RunFigure4(tinyFig4())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := tinyFig4()
			cfg.Workers = 1 + g%3
			got, err := RunFigure4(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Cells, want.Cells) {
				t.Errorf("goroutine %d: concurrent run diverged", g)
			}
		}(g)
	}
	wg.Wait()
}

// runFigure4Sequential is the single-goroutine reference implementation the
// differential tests compare the parallel runner against: the plain nested
// loop over cells, instances and policies, folding ratios as it goes. It
// also returns every ratio in the order it computed them, which is the
// sweep's dense order.
func runFigure4Sequential(cfg Figure4Config) (*Figure4Result, []float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	res := &Figure4Result{Config: cfg, Cells: make(map[Cell]stats.Summary)}
	var ratios []float64
	for _, cell := range cfg.cellGrid() {
		wcfg := workload.UniformConfig{D: cell.d, N: cfg.N, Mu: cell.mu, T: cfg.T, B: cfg.B}
		accs := make([]stats.Accumulator, len(cfg.Policies))
		for i := 0; i < cfg.Instances; i++ {
			seed := parallel.SeedFor(cfg.cellSeed(cell.d, cell.mu), i)
			l, err := workload.Uniform(wcfg, seed)
			if err != nil {
				return nil, nil, err
			}
			lb := lowerbound.IntegralBound(l)
			if lb <= 0 {
				return nil, nil, fmt.Errorf("non-positive lower bound")
			}
			for pi, name := range cfg.Policies {
				p, err := core.NewPolicy(name, seed)
				if err != nil {
					return nil, nil, err
				}
				r, err := core.Simulate(l, p, cfg.observerOpts()...)
				if err != nil {
					return nil, nil, err
				}
				accs[pi].Add(r.Cost / lb)
				ratios = append(ratios, r.Cost/lb)
			}
		}
		for pi, name := range cfg.Policies {
			res.Cells[Cell{D: cell.d, Mu: cell.mu, Policy: name}] = accs[pi].Summarize()
		}
	}
	return res, ratios, nil
}
