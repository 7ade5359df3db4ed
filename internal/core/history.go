package core

import "slices"

// History receives a run's per-item and per-bin records as the engine
// commits them: every placement (re-placements after eviction included), the
// usage record of every bin at its close, and every item's terminal outcome
// (each item reaches exactly one). Records arrive in commit order. The
// engine keeps its scalars (Result.Cost, the counters, Stats) and its
// EventRecord stream whatever the history does with them.
//
// A run's default history keeps everything in its Result: it appends
// Placements and Bins in commit order (after the records RestoreEngine
// rebuilds, in a restored run), and the engine keeps each item's outcome as
// one byte in its per-item table. Finish sorts Placements, puts
// each bin record at the index of its ID (every bin has closed exactly once
// by then, so no sort is needed) and builds Outcomes from the per-item
// bytes, as documented on Result. WithHistory replaces it.
type History interface {
	// RecordPlacement receives one committed placement.
	RecordPlacement(Placement)
	// RecordBin receives the usage record of a bin that has just closed.
	RecordBin(BinUsage)
	// RecordOutcome receives an item's terminal outcome.
	RecordOutcome(itemID int, o Outcome)
}

// WithHistory hands the run's records to h in place of the default history,
// which fills Result.Placements, Result.Bins and Result.Outcomes; h receives
// every record the default history would, RecordOutcome calls included. With
// h nil the run keeps no records at all: those three fields stay nil and
// every other field of Result comes out as it would by default. A cost-only
// sweep (one that reads only Result's scalars) saves the appends, the
// per-item outcome table, Finish's placement sort and the outcome map that
// way. A run without the default history cannot be snapshotted (Snapshot,
// RestoreEngine), because a snapshot stores the bins of the placements that
// it keeps, and it lists no placements (AppendPlacements).
func WithHistory(h History) Option {
	return func(c *config) { c.history, c.historySet = h, true }
}

// resultHistory is the default history: the run's own Result, whose
// Placements and Bins it appends to. Outcomes go to the engine's per-item
// table (Engine.outcome) instead, so RecordOutcome does nothing.
type resultHistory Result

func (h *resultHistory) RecordPlacement(p Placement) { h.Placements = push(h.Placements, p) }

func (h *resultHistory) RecordBin(u BinUsage) { h.Bins = push(h.Bins, u) }

func (h *resultHistory) RecordOutcome(int, Outcome) {}

// keepsResult reports that the run records into its own Result, the default.
func (e *Engine) keepsResult() bool {
	_, ok := e.hist.(*resultHistory)
	return ok
}

// outcome records item i's (a list index) terminal outcome: in the per-item
// table when the run keeps the default history, and in the run's history.
func (e *Engine) outcome(i int32, o Outcome) {
	if e.outcomes != nil {
		e.outcomes[i] = uint8(o) + 1
	}
	if e.hist != nil {
		e.hist.RecordOutcome(e.list.Items[i].ID, o)
	}
}

// outcomeMap builds the Result.Outcomes map of the items that have reached
// their terminal outcome from the per-item table, presized to every item.
// It also returns the number of items that have none yet.
func (e *Engine) outcomeMap() (m map[int]Outcome, pending int) {
	m = make(map[int]Outcome, len(e.outcomes))
	for i, o := range e.outcomes {
		if o == 0 {
			pending++
			continue
		}
		m[e.list.Items[i].ID] = Outcome(o - 1)
	}
	return m, pending
}

// push appends v to s and doubles s's capacity when s is full, so that n
// pushes copy fewer than n elements in all. append grows a slice past 256
// elements by about 1.25–1.3× instead, which copies each element three to
// four times on the way to a few thousand. The records the default history
// keeps and a dynamic run's per-item arrays grow through it.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 8))
	}
	return append(s, v)
}
