package core

import (
	"fmt"
	"sort"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// SimulateReference is a deliberately naive, from-scratch implementation of
// Algorithm 1 used as a differential-testing oracle for Simulate. At every
// arrival it recomputes the set of open bins and their loads directly from
// the ground-truth item intervals — no incremental state, no event queue —
// at O(n²) cost. Policies are driven through the same Policy interface with
// the same callback ordering, so for every deterministic policy the two
// engines must produce identical Results.
//
// It intentionally shares no bookkeeping code with Simulate; keep it that
// way, or the oracle stops being independent.
func SimulateReference(l *item.List, p Policy) (*Result, error) {
	if err := l.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input: %w", err)
	}
	p.Reset()

	arrivals := l.SortedByArrival()
	itemByID := make(map[int]item.Item, l.Len())
	for _, it := range l.Items {
		itemByID[it.ID] = it
	}

	type refBin struct {
		bin      *Bin // the policy-facing view (load kept in sync)
		itemIDs  []int
		closedAt float64 // +Inf while open
		closed   bool
	}
	var bins []*refBin
	res := &Result{Algorithm: p.Name(), Dim: l.Dim, Items: l.Len(), Span: l.Span(), Mu: l.Mu()}

	// closeTime recomputes a bin's close time from its items.
	closeTime := func(rb *refBin) float64 {
		last := 0.0
		for _, id := range rb.itemIDs {
			if d := itemByID[id].Departure; d > last {
				last = d
			}
		}
		return last
	}

	// syncLoads rebuilds every open bin's policy-facing active set from the
	// ground-truth intervals for time t and re-derives the load from scratch
	// through the exact accumulator. The accumulator's rounding is a pure
	// function of the active multiset, so this from-scratch rebuild is
	// bit-identical to the engine's incrementally-maintained load — the
	// reference stays independent in bookkeeping while sharing only the
	// summation arithmetic.
	syncLoads := func(t float64) {
		for _, rb := range bins {
			if rb.closed {
				continue
			}
			active := make(map[int]vector.Vector)
			for _, id := range rb.itemIDs {
				it := itemByID[id]
				if it.ActiveAt(t) {
					active[id] = it.Size
				}
			}
			rb.bin.active = active
			rb.bin.refreshLoadFromActive()
		}
	}

	processCloses := func(upTo float64) {
		// Close bins whose last departure is <= upTo, in (closeTime, binID)
		// order.
		type closing struct {
			rb *refBin
			t  float64
		}
		var cs []closing
		for _, rb := range bins {
			if rb.closed {
				continue
			}
			if ct := closeTime(rb); ct <= upTo {
				cs = append(cs, closing{rb: rb, t: ct})
			}
		}
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].t != cs[j].t {
				return cs[i].t < cs[j].t
			}
			return cs[i].rb.bin.ID < cs[j].rb.bin.ID
		})
		for _, c := range cs {
			c.rb.closed = true
			c.rb.closedAt = c.t
			res.Bins = append(res.Bins, BinUsage{
				BinID: c.rb.bin.ID, OpenedAt: c.rb.bin.OpenedAt, ClosedAt: c.t, Packed: len(c.rb.itemIDs),
			})
			res.Cost += c.t - c.rb.bin.OpenedAt
			p.OnClose(c.rb.bin)
		}
	}

	for _, it := range arrivals {
		processCloses(it.Arrival)
		syncLoads(it.Arrival)

		var open []*Bin
		for _, rb := range bins {
			if !rb.closed {
				open = append(open, rb.bin)
			}
		}

		req := Request{ID: it.ID, SeqNo: it.SeqNo, Arrival: it.Arrival, Size: it.Size}
		chosen := p.Select(req, open)
		opened := false
		var target *refBin
		if chosen == nil {
			opened = true
			nb := newBin(len(bins), l.Dim, it.Arrival, nil, nil)
			target = &refBin{bin: nb}
			bins = append(bins, target)
		} else {
			for _, rb := range bins {
				if !rb.closed && rb.bin.ID == chosen.ID {
					target = rb
					break
				}
			}
			if target == nil {
				return nil, fmt.Errorf("core: reference: policy %s returned unknown bin %d", p.Name(), chosen.ID)
			}
			if !target.bin.Fits(it.Size) {
				return nil, fmt.Errorf("core: reference: policy %s chose unfit bin %d", p.Name(), chosen.ID)
			}
		}
		target.itemIDs = append(target.itemIDs, it.ID)
		target.bin.active[it.ID] = it.Size
		target.bin.packed++
		target.bin.refreshLoadFromActive()
		p.OnPack(req, target.bin, opened)

		res.Placements = append(res.Placements, Placement{ItemID: it.ID, BinID: target.bin.ID, Opened: opened, Time: it.Arrival})
		openCount := 0
		for _, rb := range bins {
			if !rb.closed {
				openCount++
			}
		}
		if openCount > res.MaxConcurrentBins {
			res.MaxConcurrentBins = openCount
		}
	}
	processCloses(l.Hull().Hi)

	res.BinsOpened = len(bins)
	res.sortBins()
	return res, nil
}
