package migrate

import (
	"sort"

	"dvbp/internal/core"
	"dvbp/internal/metrics"
	"dvbp/internal/vector"
)

// pass is the shared scratch state of one planning pass: simulated bin loads
// that accumulate the plan's moves, the running budget, and the emitted plan.
// Feasibility is checked against plain-float simulated loads with no epsilon
// slack (load + size <= 1 exactly), strictly tighter than the engine's
// Eps-tolerant exact check, so a plan the simulation accepts cannot overflow
// when the engine applies it against the exact accumulator loads.
type pass struct {
	view   core.MigrationView
	budget core.MigrationBudget

	load     map[int][]float64 // bin ID -> simulated load
	received map[int]int       // bin ID -> staged moves into it
	moves    []core.MigrationMove
	cost     float64
}

func newPass(view core.MigrationView, budget core.MigrationBudget) *pass {
	p := &pass{
		view:     view,
		budget:   budget,
		load:     make(map[int][]float64, len(view.Bins)),
		received: make(map[int]int),
	}
	for _, b := range view.Bins {
		l := make([]float64, view.Dim)
		for j := range l {
			l[j] = b.LoadAt(j)
		}
		p.load[b.ID] = l
	}
	return p
}

// fits reports whether size fits the simulated residual of bin id.
func (p *pass) fits(id int, size vector.Vector) bool {
	l := p.load[id]
	for j, s := range size {
		if l[j]+s > 1 {
			return false
		}
	}
	return true
}

// moveCost is the budgeted cost of relocating itemID at the pass instant.
func (p *pass) moveCost(itemID int) float64 {
	return core.MigrationMoveCost(p.view.Size(itemID), p.view.Departure(itemID)-p.view.Now)
}

// withinBudget reports whether n more moves of total cost c still fit.
func (p *pass) withinBudget(n int, c float64) bool {
	if len(p.moves)+n > p.budget.MaxMoves {
		return false
	}
	return p.budget.MaxCost <= 0 || p.cost+c <= p.budget.MaxCost
}

// apply records a move and updates the simulated loads.
func (p *pass) apply(mv core.MigrationMove, cost float64) {
	size := p.view.Size(mv.ItemID)
	from, to := p.load[mv.From], p.load[mv.To]
	for j, s := range size {
		from[j] -= s
		to[j] += s
	}
	p.moves = append(p.moves, mv)
	p.received[mv.To]++
	p.cost += cost
}

// binItems returns a bin's active items, largest L1 size first (ties by
// ascending ID) — the order every planner tries to relocate them in, so the
// hardest item to place gets the most residual headroom.
func binItems(p *pass, b *core.Bin) []int {
	ids := b.ActiveItemIDs()
	sort.SliceStable(ids, func(i, j int) bool {
		si, sj := p.view.Size(ids[i]).SumNorm(), p.view.Size(ids[j]).SumNorm()
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// loadSum is the simulated L1 load of bin id.
func (p *pass) loadSum(id int) float64 {
	s := 0.0
	for _, v := range p.load[id] {
		s += v
	}
	return s
}

// drainMoves plans the full relocation of src's active items into the target
// set chosen by pickTarget, honouring the remaining budget. It returns
// ok=false (and leaves the pass untouched) when any item fits no target or
// the drain would blow the budget; on success the moves are applied to the
// pass. Draining is all-or-nothing because a partial drain closes nothing:
// the usage-time saving only materialises when the source empties.
func (p *pass) drainMoves(src *core.Bin, pickTarget func(itemID int, exclude map[int]bool) (int, bool), exclude map[int]bool) bool {
	items := binItems(p, src)
	if len(items) == 0 {
		return false
	}
	staged := make([]core.MigrationMove, 0, len(items))
	for _, id := range items {
		// apply() has already folded earlier staged moves into p.moves and
		// p.cost, so each step only asks for one more move's headroom.
		c := p.moveCost(id)
		if !p.withinBudget(1, c) {
			p.revert(staged)
			return false
		}
		to, ok := pickTarget(id, exclude)
		if !ok {
			p.revert(staged)
			return false
		}
		mv := core.MigrationMove{ItemID: id, From: src.ID, To: to}
		p.apply(mv, c)
		staged = append(staged, mv)
	}
	return true
}

// revert undoes staged moves applied by an abandoned drain attempt.
func (p *pass) revert(staged []core.MigrationMove) {
	for i := len(staged) - 1; i >= 0; i-- {
		mv := staged[i]
		size := p.view.Size(mv.ItemID)
		from, to := p.load[mv.From], p.load[mv.To]
		for j, s := range size {
			from[j] += s
			to[j] -= s
		}
		p.received[mv.To]--
		p.cost -= p.movesCost(mv)
	}
	p.moves = p.moves[:len(p.moves)-len(staged)]
}

func (p *pass) movesCost(mv core.MigrationMove) float64 { return p.moveCost(mv.ItemID) }

// DrainEmptiest consolidates by draining the emptiest bins first: sources are
// considered in ascending L1-load order, and each source is drained entirely
// (or skipped) into the fullest bins that fit — best-fit-decreasing in
// reverse. Every completed drain closes a bin at the pass instant instead of
// at its last departure, which is exactly the usage-time saving migration
// exists for.
type DrainEmptiest struct{}

// Name implements core.MigrationPlanner.
func (DrainEmptiest) Name() string { return "drain-emptiest" }

// PlanPass implements core.MigrationPlanner.
func (DrainEmptiest) PlanPass(view core.MigrationView, budget core.MigrationBudget) ([]core.MigrationMove, error) {
	if len(view.Bins) < 2 {
		return nil, nil
	}
	p := newPass(view, budget)
	sources := sortedBins(p, func(a, b *core.Bin) bool {
		sa, sb := p.loadSum(a.ID), p.loadSum(b.ID)
		if sa != sb {
			return sa < sb
		}
		return a.ID < b.ID
	})
	pickFullest := func(itemID int, exclude map[int]bool) (int, bool) {
		size := view.Size(itemID)
		best, bestSum, found := 0, -1.0, false
		for _, b := range view.Bins {
			if exclude[b.ID] || !p.fits(b.ID, size) {
				continue
			}
			if s := p.loadSum(b.ID); s > bestSum || (s == bestSum && b.ID < best) {
				best, bestSum, found = b.ID, s, true
			}
		}
		return best, found
	}
	drainGreedy(p, sources, pickFullest)
	return p.moves, nil
}

// FARBScore consolidates like DrainEmptiest but places each relocated item
// into the fitting bin minimising the FARB packing policy's score of the
// post-placement residual (core.FARBScoreOf over the simulated load), so
// drains also steer receiving bins toward balanced residual shapes.
type FARBScore struct{}

// Name implements core.MigrationPlanner.
func (FARBScore) Name() string { return "farb-score" }

// PlanPass implements core.MigrationPlanner.
func (FARBScore) PlanPass(view core.MigrationView, budget core.MigrationBudget) ([]core.MigrationMove, error) {
	if len(view.Bins) < 2 {
		return nil, nil
	}
	p := newPass(view, budget)
	sources := sortedBins(p, func(a, b *core.Bin) bool {
		sa, sb := p.loadSum(a.ID), p.loadSum(b.ID)
		if sa != sb {
			return sa < sb
		}
		return a.ID < b.ID
	})
	pickMinFARB := func(itemID int, exclude map[int]bool) (int, bool) {
		size := view.Size(itemID)
		best, bestScore, found := 0, 0.0, false
		for _, b := range view.Bins {
			if exclude[b.ID] || !p.fits(b.ID, size) {
				continue
			}
			s := core.FARBScoreOf(p.load[b.ID], size)
			if !found || s < bestScore || (s == bestScore && b.ID < best) {
				best, bestScore, found = b.ID, s, true
			}
		}
		return best, found
	}
	drainGreedy(p, sources, pickMinFARB)
	return p.moves, nil
}

// Stranded consolidates stranded capacity away: sources are ranked by their
// metrics.FragOf per-bin stranded total (most stranded first), and each is
// drained into the fitting bins whose post-placement stranded capacity is
// smallest. Bins with no stranded capacity are never victims.
type Stranded struct{}

// Name implements core.MigrationPlanner.
func (Stranded) Name() string { return "stranded" }

// PlanPass implements core.MigrationPlanner.
func (Stranded) PlanPass(view core.MigrationView, budget core.MigrationBudget) ([]core.MigrationMove, error) {
	if len(view.Bins) < 2 {
		return nil, nil
	}
	p := newPass(view, budget)
	// Rank victims by the exact per-bin stranded recompute the §13 metrics
	// layer defines; a bin whose headroom is perfectly usable stays put.
	strandedOf := make(map[int]float64, len(view.Bins))
	one := make([]*core.Bin, 1)
	for _, b := range view.Bins {
		one[0] = b
		snap := metrics.FragOf(view.Dim, one)
		s := 0.0
		for _, v := range snap.Stranded {
			s += v
		}
		strandedOf[b.ID] = s
	}
	sources := sortedBins(p, func(a, b *core.Bin) bool {
		sa, sb := strandedOf[a.ID], strandedOf[b.ID]
		if sa != sb {
			return sa > sb
		}
		return a.ID < b.ID
	})
	victims := sources[:0]
	for _, b := range sources {
		if strandedOf[b.ID] > 0 {
			victims = append(victims, b)
		}
	}
	pickLeastStranded := func(itemID int, exclude map[int]bool) (int, bool) {
		size := view.Size(itemID)
		best, bestS, found := 0, 0.0, false
		for _, b := range view.Bins {
			if exclude[b.ID] || !p.fits(b.ID, size) {
				continue
			}
			s := strandedAfter(p.load[b.ID], size)
			if !found || s < bestS || (s == bestS && b.ID < best) {
				best, bestS, found = b.ID, s, true
			}
		}
		return best, found
	}
	drainGreedy(p, victims, pickLeastStranded)
	return p.moves, nil
}

// strandedAfter is the per-bin stranded capacity (Σ_d residual_d − min_j
// residual_j) of a simulated load after placing size.
func strandedAfter(load []float64, size vector.Vector) float64 {
	usable := 2.0
	for j, s := range size {
		if r := 1 - load[j] - s; r < usable {
			usable = r
		}
	}
	if usable < 0 {
		usable = 0
	}
	total := 0.0
	for j, s := range size {
		if r := 1 - load[j] - s; r > usable {
			total += r - usable
		}
	}
	return total
}

// sortedBins returns the view's bins reordered by less (stable, so the
// caller's tie-breaks fully determine the order).
func sortedBins(p *pass, less func(a, b *core.Bin) bool) []*core.Bin {
	out := append([]*core.Bin(nil), p.view.Bins...)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// drainGreedy drains sources in order until the budget is exhausted. Chosen
// sources are excluded as targets for the rest of the pass: they close when
// their last staged move applies, so a later move into one would land in a
// closed bin. Conversely, a bin that already received a staged move is no
// longer a drain candidate — draining it would undo the pass's own work, and
// its membership list (read from the live bins) would miss the staged
// arrivals.
func drainGreedy(p *pass, sources []*core.Bin, pickTarget func(itemID int, exclude map[int]bool) (int, bool)) {
	exclude := make(map[int]bool, len(sources))
	for _, src := range sources {
		if len(p.moves) >= p.budget.MaxMoves {
			return
		}
		if p.received[src.ID] > 0 {
			continue
		}
		exclude[src.ID] = true
		if !p.drainMoves(src, pickTarget, exclude) {
			delete(exclude, src.ID)
		}
	}
}
