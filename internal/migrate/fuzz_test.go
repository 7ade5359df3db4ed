package migrate

import (
	"strings"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// fuzzReader decodes an instance, a budget and a stream of migration plans
// from arbitrary bytes. It is total: any input, including empty, yields some
// value, and past the end of the data every byte reads as zero.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// fuzzInstance decodes a small instance: d in 1..3, 1..12 items arriving in
// [0, 4) with durations in [1, 7) and sizes in (0, 0.75].
func fuzzInstance(r *fuzzReader) *item.List {
	d := 1 + int(r.byte()%3)
	l := item.NewList(d)
	n := 1 + int(r.byte()%12)
	for i := 0; i < n; i++ {
		arr := float64(r.byte() % 4)
		size := make(vector.Vector, d)
		for j := range size {
			size[j] = float64(1+r.byte()%48) / 64
		}
		l.Add(arr, arr+1+float64(r.byte()%6), size)
	}
	return l
}

// fuzzPlanner returns plans decoded from the fuzz bytes, resolved against
// the view it is shown: most moves take an active item from its own bin to
// another open bin, the rest use raw IDs that may name nothing, and a plan
// breaks the move budget only when its length byte is 255. It records
// whether any plan it returned broke the move budget.
type fuzzPlanner struct {
	r         *fuzzReader
	overCount bool
}

func (p *fuzzPlanner) Name() string { return "fuzz" }

func (p *fuzzPlanner) PlanPass(view core.MigrationView, budget core.MigrationBudget) ([]core.MigrationMove, error) {
	type slot struct{ item, bin int }
	var active []slot
	for _, b := range view.Bins {
		for _, id := range b.ActiveItemIDs() {
			active = append(active, slot{id, b.ID})
		}
	}
	n := p.r.byte()
	plan := make([]core.MigrationMove, int(n)%(budget.MaxMoves+1))
	if n == 255 {
		plan = make([]core.MigrationMove, budget.MaxMoves+1)
	}
	for i := range plan {
		mode := p.r.byte()
		if len(active) > 0 && mode&7 != 0 {
			a := active[int(p.r.byte())%len(active)]
			plan[i].ItemID, plan[i].From = a.item, a.bin
		} else {
			plan[i].ItemID, plan[i].From = int(p.r.byte()%16), int(p.r.byte()%8)
		}
		if len(view.Bins) > 0 && mode&0x38 != 0 {
			k := int(p.r.byte())
			if plan[i].To = view.Bins[k%len(view.Bins)].ID; plan[i].To == plan[i].From {
				plan[i].To = view.Bins[(k+1)%len(view.Bins)].ID
			}
		} else {
			plan[i].To = int(p.r.byte() % 8)
		}
	}
	if len(plan) > budget.MaxMoves {
		p.overCount = true
	}
	return plan, nil
}

// passCheck holds every applied move to the engine's contracts: it changes
// bins, it moves an item at most once per pass, the target stays within
// 1+Eps in every dimension, and each pass (its moves share the pass
// instant) stays within the move and cost budget.
type passCheck struct {
	core.BaseObserver
	t      *testing.T
	budget core.MigrationBudget
	at     float64
	moves  int
	cost   float64
	moved  map[int]bool
}

func (c *passCheck) ItemMigrated(itemID int, from, to *core.Bin, t, cost float64, drained bool) {
	if c.moves == 0 || t != c.at {
		c.at, c.moves, c.cost, c.moved = t, 0, 0, map[int]bool{}
	}
	c.moves++
	c.cost += cost
	if from.ID == to.ID || c.moved[itemID] {
		c.t.Fatalf("pass at t=%v moved item %d from bin %d to bin %d (moved before: %v)", t, itemID, from.ID, to.ID, c.moved[itemID])
	}
	c.moved[itemID] = true
	for j := 0; j < to.Dim(); j++ {
		if to.LoadAt(j) > 1+vector.Eps {
			c.t.Fatalf("move of item %d overflows bin %d in dimension %d: load %v", itemID, to.ID, j, to.LoadAt(j))
		}
	}
	if c.moves > c.budget.MaxMoves {
		c.t.Fatalf("pass at t=%v applied %d moves, budget %d", t, c.moves, c.budget.MaxMoves)
	}
	if c.budget.MaxCost > 0 && c.cost > c.budget.MaxCost {
		c.t.Fatalf("pass at t=%v cost %v, budget %v", t, c.cost, c.budget.MaxCost)
	}
}

// FuzzMigrationPlan runs the engine over a fuzzed instance with a planner
// that returns fuzzed plans, so the engine's own plan checks
// (checkMigrationPlan at planning, commitMove at apply) face adversarial
// moves. Properties: the run never panics; a plan the engine rejects
// poisons the run with an error, and one that breaks the move budget is
// always rejected; and every pass the engine applies keeps each bin within
// 1+Eps and the pass within its budget.
func FuzzMigrationPlan(f *testing.F) {
	// A run whose passes apply three moves and drain a bin.
	f.Add([]byte{0x2d, 0xf4, 0xeb, 0x6a, 0xc, 0xbb, 0xc9, 0xbe, 0x85, 0xf5, 0x64, 0xb5, 0xae, 0xd6, 0x36, 0xc7,
		0x46, 0x99, 0x67, 0xc3, 0xb4, 0xad, 0xca, 0xaa, 0x9f, 0x56, 0xe1, 0xd0, 0x9e, 0x50, 0x9f, 0xb4})
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{2, 6, 0, 40, 40, 5, 0, 20, 20, 5, 1, 40, 40, 5, 1, 20, 20, 5, 2, 40, 40, 5, 2, 20, 20, 5, 3, 9, 0, 2, 1, 1, 1, 2, 1, 0})
	f.Add([]byte{1, 11, 0, 63, 0, 0, 63, 1, 0, 31, 2, 1, 31, 3, 1, 15, 4, 2, 15, 5, 2, 7, 0, 3, 7, 1, 3, 3, 2, 7, 1, 2, 6, 1, 3, 4, 5, 6, 7, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		l := fuzzInstance(r)
		budget := core.MigrationBudget{MaxMoves: 1 + int(r.byte()%6)}
		if c := r.byte(); c%2 == 1 {
			budget.MaxCost = float64(c) / 16
		}
		planner := &fuzzPlanner{r: r}
		// Next Fit leaves half-empty bins behind, so many moves fit.
		e, err := core.NewEngine(l, core.NewNextFit(),
			core.WithMigration(planner, float64(1+r.byte()%2), budget),
			core.WithObserver(&passCheck{t: t, budget: budget}))
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		defer e.Close()
		for {
			_, ok, err := e.Step()
			if err != nil {
				if !strings.Contains(err.Error(), "migration") {
					t.Fatalf("run failed outside migration: %v", err)
				}
				if _, _, again := e.Step(); again == nil {
					t.Fatalf("a rejected plan (%v) left the run steppable", err)
				}
				return
			}
			if !ok {
				break
			}
		}
		if planner.overCount {
			t.Fatal("the engine ran a plan with more moves than the budget allows")
		}
		if _, err := e.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	})
}
