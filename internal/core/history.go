package core

// History receives a run's per-item and per-bin records as the engine
// commits them: every placement (re-placements after eviction included), the
// usage record of every bin at its close, and every item's terminal outcome
// (each item reaches exactly one). Records arrive in commit order. The
// engine keeps its scalars (Result.Cost, the counters, Stats) and its
// EventRecord stream whatever the history does with them.
//
// A run's default history keeps everything in its Result: Placements, Bins
// and Outcomes, with Finish sorting Placements and Bins as documented on
// Result. WithHistory replaces it.
type History interface {
	// RecordPlacement receives one committed placement.
	RecordPlacement(Placement)
	// RecordBin receives the usage record of a bin that has just closed.
	RecordBin(BinUsage)
	// RecordOutcome receives an item's terminal outcome.
	RecordOutcome(itemID int, o Outcome)
}

// WithHistory hands the run's records to h in place of the default history,
// which fills Result.Placements, Result.Bins and Result.Outcomes. With h
// nil the run keeps no records at all: those three fields stay nil and every
// other field of Result comes out as it would by default. A cost-only sweep
// (one that reads only Result's scalars) saves the appends, the outcome map
// and Finish's sort that way. A run without the default history cannot be
// snapshotted (Snapshot, RestoreEngine), because a snapshot carries the
// partial Result, and it lists no placements (AppendPlacements).
func WithHistory(h History) Option {
	return func(c *config) { c.history, c.historySet = h, true }
}

// resultHistory is the default history: the run's own Result, whose
// Placements, Bins and Outcomes it appends and writes to.
type resultHistory Result

func (h *resultHistory) RecordPlacement(p Placement) { h.Placements = append(h.Placements, p) }

func (h *resultHistory) RecordBin(u BinUsage) { h.Bins = append(h.Bins, u) }

func (h *resultHistory) RecordOutcome(itemID int, o Outcome) { h.Outcomes[itemID] = o }

// keepsResult reports that the run records into its own Result, the default.
func (e *Engine) keepsResult() bool {
	_, ok := e.hist.(*resultHistory)
	return ok
}

// outcome hands an item's terminal outcome to the run's history.
func (e *Engine) outcome(itemID int, o Outcome) {
	if e.hist != nil {
		e.hist.RecordOutcome(itemID, o)
	}
}
