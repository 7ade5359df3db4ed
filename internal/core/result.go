package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Placement records where one item was packed. Under fault injection an
// item may have several placements (one per dispatch that succeeded).
type Placement struct {
	ItemID int
	BinID  int
	// Opened reports whether packing this item opened a new bin.
	Opened bool
	// Time is the packing (dispatch) time.
	Time float64
	// Attempt is 0 for the first placement and k for the re-placement after
	// the item's k-th eviction.
	Attempt int
}

// BinUsage summarises one bin's lifetime: a single usage interval, per the
// paper's w.l.o.g. normalisation.
type BinUsage struct {
	BinID    int
	OpenedAt float64
	ClosedAt float64
	// Packed is the number of items the bin ever held.
	Packed int
	// Crashed reports that the bin was forcibly closed by fault injection
	// rather than by its last item departing.
	Crashed bool
}

// Usage returns the bin's contribution to the packing cost.
func (u BinUsage) Usage() float64 { return u.ClosedAt - u.OpenedAt }

// Result is the outcome of one simulation run.
type Result struct {
	// Algorithm is the policy name.
	Algorithm string
	// Dim is the number of resource dimensions.
	Dim int
	// Items is the number of items packed.
	Items int
	// Cost is the MinUsageTime objective: Σ_bins (closed - opened).
	Cost float64
	// BinsOpened is the total number of bins ever opened.
	BinsOpened int
	// MaxConcurrentBins is the peak number of simultaneously open bins.
	MaxConcurrentBins int
	// Placements maps each item (by index in input order of IDs) to its bin.
	// It, Bins and Outcomes are what the default history keeps; all three
	// are nil for a run given another history (WithHistory).
	Placements []Placement
	// Bins holds per-bin usage records, ascending by BinID.
	Bins []BinUsage
	// Span is span(R) for the input, recorded for convenience (cost of an
	// idealised single-bin packing; also the Lemma 1(iii) lower bound).
	Span float64
	// Mu is the max/min duration ratio of the input.
	Mu float64

	// Failure and admission accounting. All fields below are zero on a
	// fault-free, uncapped run (the paper's model).

	// Crashes is the number of bins forcibly closed by fault injection.
	Crashes int
	// Evictions counts item displacements caused by crashes (an item
	// evicted twice counts twice).
	Evictions int
	// Retries counts successful re-placements of evicted items.
	Retries int
	// ItemsLost counts evicted items that could not be re-dispatched before
	// their own departure time.
	ItemsLost int
	// Rejected counts dispatches dropped because the fleet was at WithMaxBins
	// capacity and no admission queue was configured.
	Rejected int
	// TimedOut counts admission-queue entries dropped because their deadline
	// or their own departure passed before capacity freed.
	TimedOut int
	// QueuedPlaced counts placements that came out of the admission queue.
	QueuedPlaced int
	// QueueDelay is the total simulated time QueuedPlaced items spent
	// waiting in the admission queue.
	QueueDelay float64
	// LostUsageTime is the total usage time lost to crashes: for every
	// eviction, the gap between the crash and the item's re-dispatch (or its
	// departure, when the item is lost).
	LostUsageTime float64

	// Migration accounting (DESIGN.md §14). All fields are zero unless the
	// run was configured with WithMigration and a positive budget.

	// Migrations counts applied migration moves.
	Migrations int
	// MigrationCost is the total move cost Σ MigrationMoveCost (moved L1
	// size × remaining duration at the pass instant). It is reported beside
	// Cost, not folded into it: Cost stays the paper's usage-time objective.
	MigrationCost float64
	// BinsDrained counts bins closed because a migration move emptied them.
	BinsDrained int

	// Outcomes maps every input item ID to its terminal state.
	Outcomes map[int]Outcome
}

// Outcome is the terminal state of one input item.
type Outcome uint8

// The four terminal states. Every item reaches exactly one.
const (
	// OutcomeServed: the item departed normally (possibly after one or more
	// eviction/re-placement cycles).
	OutcomeServed Outcome = iota
	// OutcomeLost: the item was evicted by a crash and could not resume
	// before its departure.
	OutcomeLost
	// OutcomeRejected: a dispatch of the item was dropped at admission with
	// no queue configured.
	OutcomeRejected
	// OutcomeTimedOut: the item waited in the admission queue until its
	// deadline (or departure) passed.
	OutcomeTimedOut
)

// String renders the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeServed:
		return "served"
	case OutcomeLost:
		return "lost"
	case OutcomeRejected:
		return "rejected"
	case OutcomeTimedOut:
		return "timed-out"
	}
	return "unknown"
}

// PlacementOf returns the first placement record for an item ID (ok=false
// if the item was never placed). Under fault injection later placements of
// the same item are found by scanning Placements directly.
func (r *Result) PlacementOf(itemID int) (Placement, bool) {
	for _, p := range r.Placements {
		if p.ItemID == itemID {
			return p, true
		}
	}
	return Placement{}, false
}

// BinItems returns, for each bin ID, the item IDs packed into it in packing
// order.
func (r *Result) BinItems() map[int][]int {
	m := make(map[int][]int)
	for _, p := range r.Placements {
		m[p.BinID] = append(m[p.BinID], p.ItemID)
	}
	return m
}

// NormalizedCost returns Cost / lb, the experimental performance measure the
// paper plots in Figure 4 (lb is a lower bound on OPT). It panics if lb <= 0.
func (r *Result) NormalizedCost(lb float64) float64 {
	if lb <= 0 {
		panic("core: non-positive lower bound")
	}
	return r.Cost / lb
}

// String renders a human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: d=%d items=%d bins=%d peak=%d cost=%.4f span=%.4f",
		r.Algorithm, r.Dim, r.Items, r.BinsOpened, r.MaxConcurrentBins, r.Cost, r.Span)
	if r.Crashes > 0 || r.Rejected > 0 || r.TimedOut > 0 {
		fmt.Fprintf(&b, " crashes=%d evict=%d retry=%d lost=%d reject=%d timeout=%d",
			r.Crashes, r.Evictions, r.Retries, r.ItemsLost, r.Rejected, r.TimedOut)
	}
	if r.Migrations > 0 {
		fmt.Fprintf(&b, " migrations=%d migcost=%.4f drained=%d",
			r.Migrations, r.MigrationCost, r.BinsDrained)
	}
	return b.String()
}

// sortBins normalises Bins/Placements ordering for deterministic output.
func (r *Result) sortBins() {
	slices.SortFunc(r.Bins, func(a, b BinUsage) int { return cmp.Compare(a.BinID, b.BinID) })
	slices.SortFunc(r.Placements, func(a, b Placement) int {
		if a.Time != b.Time {
			if a.Time < b.Time {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ItemID, b.ItemID)
	})
}
