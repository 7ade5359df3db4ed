package migrate

import (
	"fmt"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// smallSize is the long-lived item size of the consolidation workload.
// Deliberately skewed so each leftover bin also strands capacity
// (residual (0.75, 0.95) → 0.2 stranded), giving the Stranded planner
// victims to work on.
var smallSize = vector.Vector{0.25, 0.05}

// fragmentedList builds the canonical consolidation workload: pairs of one
// big short-lived item (0.7, departs at 1.5) and one small long-lived item
// (smallSize, departs at 100) all arriving at t=0. FirstFit packs each pair
// into its own bin, so after the bigs depart at 1.5 the run holds `pairs`
// bins at load smallSize each — pure fragmentation that only migration can
// clean up before t=100.
func fragmentedList(pairs int) *item.List {
	l := item.NewList(2)
	for i := 0; i < pairs; i++ {
		l.Add(0, 1.5, vector.Vector{0.7, 0.7})
		l.Add(0, 100, smallSize)
	}
	return l
}

// moveLog records every migration callback for invariant checks.
type moveLog struct {
	core.BaseObserver
	moves []loggedMove
}

type loggedMove struct {
	itemID   int
	from, to int
	t, cost  float64
	drained  bool
}

func (m *moveLog) ItemMigrated(itemID int, from, to *core.Bin, t, cost float64, drained bool) {
	m.moves = append(m.moves, loggedMove{itemID, from.ID, to.ID, t, cost, drained})
}

func runPlanner(t *testing.T, p core.MigrationPlanner, budget core.MigrationBudget) (*core.Result, *moveLog) {
	t.Helper()
	log := &moveLog{}
	var audit core.Audit
	res, err := core.Simulate(fragmentedList(6), core.NewFirstFit(),
		core.WithMigration(p, 2, budget),
		core.WithObserver(log),
		core.WithAudit(&audit))
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return res, log
}

func TestPlannersConsolidate(t *testing.T) {
	baseline, err := core.Simulate(fragmentedList(6), core.NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	// 6 bins × [0,100) ≈ 600 usage time with irrevocable placements.
	if baseline.Cost < 590 {
		t.Fatalf("baseline cost = %v, workload construction is off", baseline.Cost)
	}
	budget := core.MigrationBudget{MaxMoves: 16}
	for _, p := range []core.MigrationPlanner{DrainEmptiest{}, FARBScore{}, Stranded{}} {
		t.Run(p.Name(), func(t *testing.T) {
			res, log := runPlanner(t, p, budget)
			if res.Migrations == 0 || len(log.moves) != res.Migrations {
				t.Fatalf("migrations = %d, observer saw %d moves", res.Migrations, len(log.moves))
			}
			if res.BinsDrained == 0 {
				t.Error("no bins drained on a pure-fragmentation workload")
			}
			if res.MigrationCost <= 0 {
				t.Errorf("migration cost = %v, want > 0", res.MigrationCost)
			}
			if res.Cost >= baseline.Cost {
				t.Errorf("cost with migration = %v, baseline = %v: consolidation saved nothing", res.Cost, baseline.Cost)
			}
			// Passes fire at multiples of the period (2), after the bigs
			// depart at 1.5 and strictly before the smalls depart at 100.
			// Each move's cost is the small's L1 size times its remaining
			// duration at the pass instant.
			for _, mv := range log.moves {
				if mv.t < 2 || mv.t >= 100 || mv.t != 2*float64(int(mv.t/2)) {
					t.Errorf("move %+v fired at t=%v, want a multiple of period 2 in [2, 100)", mv, mv.t)
				}
				if want := smallSize.SumNorm() * (100 - mv.t); mv.cost != want {
					t.Errorf("move %+v cost = %v, want %v", mv, mv.cost, want)
				}
			}
			drains := 0
			for _, mv := range log.moves {
				if mv.drained {
					drains++
				}
			}
			if drains != res.BinsDrained {
				t.Errorf("observer saw %d drains, result reports %d", drains, res.BinsDrained)
			}
		})
	}
}

// Every planner must respect MaxMoves and MaxCost per pass.
func TestPlannersRespectBudget(t *testing.T) {
	for _, p := range []core.MigrationPlanner{DrainEmptiest{}, FARBScore{}, Stranded{}} {
		for _, budget := range []core.MigrationBudget{
			{MaxMoves: 1},
			{MaxMoves: 3},
			{MaxMoves: 16, MaxCost: 60}, // ~two first-pass moves at cost 29.4 each
		} {
			t.Run(fmt.Sprintf("%s/moves=%d,cost=%g", p.Name(), budget.MaxMoves, budget.MaxCost), func(t *testing.T) {
				res, log := runPlanner(t, p, budget)
				perPass := map[float64]int{}
				perPassCost := map[float64]float64{}
				for _, mv := range log.moves {
					perPass[mv.t]++
					perPassCost[mv.t] += mv.cost
				}
				for passT, n := range perPass {
					if n > budget.MaxMoves {
						t.Errorf("pass at t=%v made %d moves, budget %d", passT, n, budget.MaxMoves)
					}
					if budget.MaxCost > 0 && perPassCost[passT] > budget.MaxCost {
						t.Errorf("pass at t=%v cost %v, budget %v", passT, perPassCost[passT], budget.MaxCost)
					}
				}
				_ = res
			})
		}
	}
}

// Planners are pure functions of the view: two identical runs must produce
// identical results and identical move logs.
func TestPlannersDeterministic(t *testing.T) {
	budget := core.MigrationBudget{MaxMoves: 16}
	for _, mk := range []func() core.MigrationPlanner{
		func() core.MigrationPlanner { return DrainEmptiest{} },
		func() core.MigrationPlanner { return FARBScore{} },
		func() core.MigrationPlanner { return Stranded{} },
	} {
		p := mk()
		t.Run(p.Name(), func(t *testing.T) {
			res1, log1 := runPlanner(t, mk(), budget)
			res2, log2 := runPlanner(t, mk(), budget)
			if res1.String() != res2.String() {
				t.Errorf("results differ:\n  %v\n  %v", res1, res2)
			}
			if len(log1.moves) != len(log2.moves) {
				t.Fatalf("move counts differ: %d vs %d", len(log1.moves), len(log2.moves))
			}
			for i := range log1.moves {
				if log1.moves[i] != log2.moves[i] {
					t.Errorf("move %d differs: %+v vs %+v", i, log1.moves[i], log2.moves[i])
				}
			}
		})
	}
}

// Planner plans must pass the engine's own plan checks: the engine runs
// checkMigrationPlan on every plan and commitMove on every move, and either
// rejection poisons the run, so a run that finishes accepted every plan.
func TestPlannerPlansValidate(t *testing.T) {
	for _, p := range []core.MigrationPlanner{DrainEmptiest{}, FARBScore{}, Stranded{}} {
		t.Run(p.Name(), func(t *testing.T) {
			budget := core.MigrationBudget{MaxMoves: 16}
			counter := passCounter{MigrationPlanner: p}
			res, err := core.Simulate(fragmentedList(6), core.NewFirstFit(),
				core.WithMigration(&counter, 2, budget))
			if err != nil {
				t.Fatal(err)
			}
			if counter.passes == 0 || res.Migrations == 0 {
				t.Fatalf("planner consulted %d times, %d moves applied", counter.passes, res.Migrations)
			}
		})
	}
}

// passCounter wraps a planner and counts the passes it plans.
type passCounter struct {
	core.MigrationPlanner
	passes int
}

func (c *passCounter) PlanPass(view core.MigrationView, budget core.MigrationBudget) ([]core.MigrationMove, error) {
	c.passes++
	return c.MigrationPlanner.PlanPass(view, budget)
}

// White-box checks of the scoring helpers.
func TestFarbScoreOf(t *testing.T) {
	// Perfectly balanced residual: spread 0, mean r, L2/√d = r.
	load := []float64{0.5, 0.5}
	size := vector.Vector{0.25, 0.25}
	want := 0.3*0.25 + 0.2*0.25
	if got := core.FARBScoreOf(load, size); !almost(got, want) {
		t.Errorf("FARBScoreOf = %v, want %v", got, want)
	}
	// Skewed residual scores strictly worse than balanced at equal mean.
	skew := core.FARBScoreOf([]float64{0.8, 0.2}, size)
	if skew <= core.FARBScoreOf(load, size) {
		t.Errorf("skewed residual %v not worse than balanced %v", skew, core.FARBScoreOf(load, size))
	}
}

func TestStrandedAfter(t *testing.T) {
	// Residual (0.25, 0.25): nothing stranded.
	if got := strandedAfter([]float64{0.5, 0.5}, vector.Vector{0.25, 0.25}); got != 0 {
		t.Errorf("balanced residual stranded = %v, want 0", got)
	}
	// Residual (0.7, 0.1): 0.6 stranded in dimension 0.
	if got := strandedAfter([]float64{0.2, 0.8}, vector.Vector{0.1, 0.1}); !almost(got, 0.6) {
		t.Errorf("stranded = %v, want 0.6", got)
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestNewPlannerRegistry(t *testing.T) {
	names := PlannerNames()
	if len(names) != 3 {
		t.Fatalf("PlannerNames() = %v, want 3 planners", names)
	}
	for _, name := range names {
		p, err := NewPlanner(name)
		if err != nil {
			t.Fatalf("NewPlanner(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPlanner(%q).Name() = %q: registry key and planner name drifted", name, p.Name())
		}
	}
	if _, err := NewPlanner("bogus"); err == nil {
		t.Error("NewPlanner accepted an unknown name")
	}
}
