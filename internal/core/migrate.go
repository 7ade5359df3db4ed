package core

// This file defines the live-migration seam of the engine: periodic
// consolidation passes planned by a pluggable MigrationPlanner, applied move
// by move as first-class engine events (EventMigration), under a hard
// per-pass budget on both the move count and the moved size·remaining-time
// cost. The paper's model makes placements irrevocable; this seam relaxes
// that assumption as a measured extension (DESIGN.md §14) while preserving
// every determinism contract the engine is built on: a migrated run is a pure
// function of (instance, policy, options), so recovery re-steps it from its
// op log (a migrating run is never snapshotted), and a zero budget is
// bit-identical to an unmodified run.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dvbp/internal/vector"
)

// MigrationMove relocates one active item from one open bin to another.
type MigrationMove struct {
	ItemID int
	From   int
	To     int
}

// MigrationBudget bounds one consolidation pass. MaxMoves is the hard cap on
// the number of moves in the pass; MaxCost, when positive, additionally caps
// the pass's total migration cost Σ MigrationMoveCost (zero or negative means
// the cost is unbounded). A budget with MaxMoves <= 0 disables migration
// entirely: WithMigration then configures nothing, so the engine is the
// unmodified engine — bit-identical events, loads, metrics and snapshots.
type MigrationBudget struct {
	MaxMoves int
	MaxCost  float64
}

// MigrationMoveCost is the exact cost model of one move: the L1 size of the
// moved item times its remaining duration at the pass instant. It is the
// copy-volume a live migration transfers, weighted by how long the item will
// keep occupying its new home — moving a large, long-lived item is expensive,
// moving a small, nearly-departed one is almost free.
func MigrationMoveCost(size vector.Vector, remaining float64) float64 {
	return size.SumNorm() * remaining
}

// MigrationView is the read-only cluster state a planner sees. Bins holds the
// open bins in ascending ID order with no holes; planners must not mutate
// them (the same contract policies operate under). Size and Departure resolve
// item metadata for cost and feasibility reasoning.
type MigrationView struct {
	// Now is the pass instant.
	Now float64
	// Dim is the instance dimension.
	Dim int
	// Bins are the open bins, ascending ID.
	Bins []*Bin
	// Size returns an item's size vector (shared; do not mutate).
	Size func(itemID int) vector.Vector
	// Departure returns an item's departure time.
	Departure func(itemID int) float64
}

// MigrationPlanner plans one consolidation pass. Implementations must be
// deterministic pure functions of the view and budget — no wall clock, no
// global RNG, no state carried between passes — because the engine re-plans
// a pass from the same view when recovery re-steps the run, and the
// regenerated moves must match the original ones bit for bit. The returned
// moves are applied in order, one engine event each; the whole plan must
// respect the budget, and every move must be feasible when its turn comes
// (earlier moves in the same pass included). A plan that violates either
// contract poisons the run with an error, never a panic. internal/migrate
// provides the standard planners.
type MigrationPlanner interface {
	// Name returns a stable identifier, e.g. "drain-emptiest".
	Name() string
	// PlanPass returns the moves of one pass (nil/empty for "nothing to do").
	PlanPass(view MigrationView, budget MigrationBudget) ([]MigrationMove, error)
}

// MigrationObserver is an optional extension of Observer (like
// FailureObserver): when an attached Observer also implements it, the engine
// reports every applied move to it. ItemMigrated fires after the item has been
// re-packed into to (both bins' loads reflect the move); a move that drains
// its source fires the source's BinClosed callback first. A drained source
// is valid until ItemMigrated returns (see Bin): the engine may reopen it
// for the next dispatch under a new ID.
type MigrationObserver interface {
	// ItemMigrated fires at pass time t after the item moved from from to to.
	// cost is the move's MigrationMoveCost. drained reports that the move
	// emptied (and therefore closed) the source bin.
	ItemMigrated(itemID int, from, to *Bin, t, cost float64, drained bool)
}

// migrateConfig is the engine's migration configuration (nil when disabled).
type migrateConfig struct {
	planner MigrationPlanner
	period  float64
	budget  MigrationBudget
}

// WithMigration enables periodic consolidation passes: every period time
// units (first pass at t = period) the planner is consulted and its moves are
// applied as engine events, subject to the per-pass budget. A pass at time t
// runs after all other events at t (departures, crashes, retries, arrivals)
// and only while the run still has events pending, so migration never
// extends a run's horizon.
//
// A nil planner, non-positive period, or budget with MaxMoves <= 0 configures
// nothing: the engine is then provably identical to one built without this
// option — the budget-0 differential contract (DESIGN.md §14).
func WithMigration(p MigrationPlanner, period float64, budget MigrationBudget) Option {
	return func(c *config) {
		if p == nil || period <= 0 || math.IsNaN(period) || budget.MaxMoves <= 0 {
			return
		}
		c.migrate = &migrateConfig{planner: p, period: period, budget: budget}
	}
}

// migPassTime returns the absolute time of pass n (1-based). Multiplication,
// not repeated addition, so the schedule is a pure function of n and restore
// recomputes it exactly.
func (e *Engine) migPassTime(n int64) float64 {
	return e.cfg.migrate.period * float64(n)
}

// maybePlanMigration runs due consolidation passes strictly before the next
// real event at t. State only changes at events, so consecutive due passes
// see the same view: after one empty plan the remaining due pass numbers are
// skipped wholesale (the planner, a pure function, would return empty again)
// up to the first pass at or after t. The first non-empty plan is validated
// against the budget and staged; its moves then commit one per Step ahead of
// the event at t.
func (e *Engine) maybePlanMigration(t float64) error {
	for e.migPassTime(e.migPass) < t {
		passAt := e.migPassTime(e.migPass)
		e.migPass++
		moves, err := e.planMigrationPass(passAt)
		if err != nil {
			return err
		}
		if len(moves) > 0 {
			e.pendingMoves = moves
			e.passTime = passAt
			return nil
		}
		// Empty plan: fast-forward to the first pass number at or after t.
		// A pass landing exactly on t still runs — after t's events, per the
		// same-instant class order — so it is not skipped here.
		if n := int64(math.Ceil(t / e.cfg.migrate.period)); n > e.migPass {
			for n > e.migPass+1 && e.migPassTime(n-1) >= t {
				n--
			}
			e.migPass = n
		}
	}
	return nil
}

// planMigrationPass consults the planner at passAt and validates the plan
// against the budget and the engine's live state.
func (e *Engine) planMigrationPass(passAt float64) ([]MigrationMove, error) {
	e.compact()
	view := MigrationView{
		Now:  passAt,
		Dim:  e.list.Dim,
		Bins: e.open,
		Size: func(id int) vector.Vector {
			if i, ok := e.index(id); ok {
				return e.list.Items[i].Size
			}
			return nil
		},
		Departure: func(id int) float64 {
			if i, ok := e.index(id); ok {
				return e.list.Items[i].Departure
			}
			return math.NaN()
		},
	}
	moves, err := e.cfg.migrate.planner.PlanPass(view, e.cfg.migrate.budget)
	if err != nil {
		return nil, fmt.Errorf("core: migration planner %s: %w", e.cfg.migrate.planner.Name(), err)
	}
	if len(moves) == 0 {
		return nil, nil
	}
	if err := e.checkMigrationPlan(moves, passAt); err != nil {
		return nil, fmt.Errorf("core: migration planner %s: %w", e.cfg.migrate.planner.Name(), err)
	}
	return moves, nil
}

// checkMigrationPlan enforces the budget and structural sanity of a plan
// before any move is applied. Per-move feasibility (the target fits in every
// dimension) is enforced move by move at apply time, against the exact loads.
func (e *Engine) checkMigrationPlan(moves []MigrationMove, passAt float64) error {
	budget := e.cfg.migrate.budget
	if len(moves) > budget.MaxMoves {
		return fmt.Errorf("plan has %d moves, budget allows %d", len(moves), budget.MaxMoves)
	}
	first, dup := repeatedMove(moves)
	cost := 0.0
	for i, mv := range moves {
		if i == dup {
			return fmt.Errorf("moves %d and %d both relocate item %d", first, i, mv.ItemID)
		}
		if mv.From == mv.To {
			return fmt.Errorf("move %d relocates item %d from bin %d to itself", i, mv.ItemID, mv.From)
		}
		from := e.binByID(mv.From)
		if from == nil {
			return fmt.Errorf("move %d names unknown source bin %d", i, mv.From)
		}
		if e.binByID(mv.To) == nil {
			return fmt.Errorf("move %d names unknown target bin %d", i, mv.To)
		}
		k, known := e.index(mv.ItemID)
		if !known || e.slots[k].bin != from.slot {
			return fmt.Errorf("move %d: item %d is not active in bin %d", i, mv.ItemID, mv.From)
		}
		it := &e.list.Items[k]
		cost += MigrationMoveCost(it.Size, it.Departure-passAt)
	}
	if budget.MaxCost > 0 && cost > budget.MaxCost {
		return fmt.Errorf("plan costs %g, budget allows %g", cost, budget.MaxCost)
	}
	return nil
}

// repeatedMove returns the first move of a plan that relocates an item an
// earlier move already relocates (dup; -1 when every item moves once) and
// that item's first move. A stable sort of the move indices by item puts
// each item's moves together in plan order, so each adjacent pair of one
// item's moves is a candidate, and its first pair holds its smallest dup.
func repeatedMove(moves []MigrationMove) (first, dup int) {
	order := make([]int, len(moves))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(moves[a].ItemID, moves[b].ItemID) })
	first, dup = -1, -1
	for k := 1; k < len(order); k++ {
		if a, b := order[k-1], order[k]; moves[a].ItemID == moves[b].ItemID && (dup < 0 || b < dup) {
			first, dup = a, b
		}
	}
	return first, dup
}

// stepMove commits the next staged migration move as this Step's event.
func (e *Engine) stepMove() (EventRecord, bool, error) {
	e.eventSeq++
	rec := EventRecord{Seq: e.eventSeq, Class: EventMigration, Time: e.passTime, ItemID: -1, BinID: -1}
	var err error
	rec.ItemID, rec.BinID, err = e.commitMove()
	if err != nil {
		e.err = err
		return EventRecord{}, false, err
	}
	e.lastTime = e.passTime
	return rec, true, nil
}

// commitMove applies the next staged move at the pass time and returns its
// event record fields. A move that empties its source bin closes it — the
// whole point of consolidation: the drained bin stops accruing usage-time
// cost now instead of at its last departure.
func (e *Engine) commitMove() (itemID, binID int, err error) {
	mv := e.pendingMoves[0]
	e.pendingMoves = e.pendingMoves[1:]
	if len(e.pendingMoves) == 0 {
		e.pendingMoves = nil
	}
	t := e.passTime
	from := e.binByID(mv.From)
	if from == nil {
		return -1, -1, fmt.Errorf("core: migration move from unknown bin %d", mv.From)
	}
	to := e.binByID(mv.To)
	if to == nil {
		return -1, -1, fmt.Errorf("core: migration move to unknown bin %d", mv.To)
	}
	k, known := e.index(mv.ItemID)
	if !known || e.slots[k].bin != from.slot {
		return -1, -1, fmt.Errorf("core: migration move of item %d not active in bin %d", mv.ItemID, mv.From)
	}
	it := &e.list.Items[k]
	if !to.Fits(it.Size) {
		return -1, -1, fmt.Errorf("core: migration move of item %d (size %v) overflows bin %d (load %v)", mv.ItemID, it.Size, to.ID, to.load)
	}
	e.totalsSub(from)
	e.totalsSub(to)
	// The item keeps its attempt, so its live departure entry, which holds
	// only the item, finds it in to through its slot.
	attempt := int(e.slots[k].attempt)
	e.unpack(k)
	if err := e.pack(to, k, attempt); err != nil {
		return -1, -1, fmt.Errorf("core: %w", err)
	}
	e.totalsAdd(to)
	if e.cfg.audit != nil {
		from.auditCrossCheckLoad()
		to.auditCrossCheckLoad()
	}
	cost := MigrationMoveCost(it.Size, it.Departure-t)
	e.res.Migrations++
	e.res.MigrationCost += cost

	e.idxPut(to, false)
	drained := from.Empty()
	if drained {
		e.res.BinsDrained++
		e.closeBinAt(from, t, false)
	} else {
		e.totalsAdd(from)
		e.idxPut(from, false)
	}
	if err := e.auditOpenSet(); err != nil {
		return -1, -1, err
	}
	for _, o := range e.mObs {
		o.ItemMigrated(mv.ItemID, from, to, t, cost, drained)
	}
	// A drain freed a whole bin slot; even a plain move freed capacity in the
	// source. Either can admit a queued dispatch.
	if err := e.drainQueue(t); err != nil {
		return -1, -1, err
	}
	return mv.ItemID, to.ID, nil
}
