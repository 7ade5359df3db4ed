package core

import (
	"fmt"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// WithDynamicArrivals puts the engine in dynamic-arrival mode: the run may
// start from an empty item list and grow it mid-run with AppendArrival. This
// is the mode the placement server (internal/server) runs tenants in — the
// workload is not known up front, it is the stream of client requests.
//
// Determinism is preserved by an admission discipline, not by luck: every
// appended arrival must be at or after the time of the latest committed event
// (and at or after every earlier arrival), so the committed event sequence of
// an incrementally-grown run is bit-identical to a from-scratch run over the
// final list. That equivalence is what lets the persistence layer recover a
// dynamic run by re-stepping the engine over the list rebuilt from the
// tenant's op log.
func WithDynamicArrivals() Option {
	return func(c *config) { c.dynamic = true }
}

// AppendArrival admits one more item into a dynamic run and returns its
// assigned ID (the next list index). The arrival must not be in the engine's
// past: it has to be at or after both the previous arrival and the most
// recent committed event, so the grown run replays identically from scratch.
// The item is not dispatched here — step the engine (through its session)
// until the arrival event commits to learn the placement.
//
// The engine keeps a copy of size, so the caller may reuse it. The copy goes
// into a chunk the run holds, with room for sizeChunkItems items' sizes, so
// an append allocates no size of its own; the list's item keeps a window
// into the chunk whose capacity ends with its size. The list and the run's
// per-item arrays grow by doubling (push).
func (e *Engine) AppendArrival(arrival, departure float64, size vector.Vector) (int, error) {
	if !e.cfg.dynamic {
		return 0, fmt.Errorf("core: AppendArrival on a static run (missing WithDynamicArrivals)")
	}
	if e.err != nil {
		return 0, fmt.Errorf("core: cannot append to a failed engine: %w", e.err)
	}
	if e.finished {
		return 0, fmt.Errorf("core: cannot append to a finished engine")
	}
	id := len(e.list.Items)
	it := item.Item{ID: id, SeqNo: id, Arrival: arrival, Departure: departure, Size: size}
	if err := it.Validate(e.list.Dim); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	if n := len(e.arrivals); n > 0 {
		if prev := e.list.Items[e.arrivals[n-1]].Arrival; arrival < prev {
			return 0, fmt.Errorf("core: arrival %g is before the previously admitted arrival %g", arrival, prev)
		}
	}
	if arrival < e.lastTime {
		return 0, fmt.Errorf("core: arrival %g is in the engine's past (last committed event at %g)", arrival, e.lastTime)
	}
	// The ID is the new item's list index, and the arrival order and the
	// per-item tables only grow at their ends.
	it.Size = e.storeSize(size)
	e.list.Items = push(e.list.Items, it)
	e.arrivals = push(e.arrivals, int32(id))
	e.slots = push(e.slots, itemSlot{})
	if e.outcomes != nil {
		e.outcomes = push(e.outcomes, 0)
	}
	e.shape.add(arrival, departure)
	e.res.Items = e.list.Len()
	return id, nil
}

// sizeChunkItems is how many items' sizes one of a dynamic run's size chunks
// holds.
const sizeChunkItems = 256

// storeSize copies size into the run's current size chunk, opening a new
// chunk when this one is full, and returns the copy. The copy's capacity
// ends with it, so an append to it cannot reach the next item's size. A full
// chunk is never regrown: it stays with the items whose sizes it holds.
func (e *Engine) storeSize(size vector.Vector) vector.Vector {
	d := len(size)
	if cap(e.sizes)-len(e.sizes) < d {
		e.sizes = make([]float64, 0, sizeChunkItems*d)
	}
	k := len(e.sizes)
	e.sizes = append(e.sizes, size...)
	return e.sizes[k : k+d : k+d]
}

// PeekTime returns the time of the earliest pending event, ok=false when the
// engine is idle (no departures, crashes, retries, or unconsumed arrivals).
// Dynamic callers use it to commit exactly the events that are due — stepping
// past the last admitted arrival would fire future departures early.
func (e *Engine) PeekTime() (float64, bool) {
	if e.err != nil || e.finished {
		return 0, false
	}
	if len(e.pendingMoves) > 0 {
		// A staged migration pass commits ahead of every other event.
		return e.passTime, true
	}
	t, class, _ := e.next()
	return t, class != evNone
}

// EngineStats is a cheap point-in-time view of a running engine, sized for a
// status endpoint: counters and aggregates only, no per-item data. The
// placement records are listed by AppendPlacements.
type EngineStats struct {
	// EventSeq is the number of committed events; Clock the time of the most
	// recent one (0 before the first).
	EventSeq int64
	Clock    float64
	// Items is the number of items admitted to the run so far.
	Items int
	// ArrivalsPending counts admitted items whose arrival event has not
	// committed yet.
	ArrivalsPending int
	// Placements counts committed placements (re-placements after eviction
	// included); Served counts items that have departed normally.
	Placements int
	Served     int
	// OpenBins is the number of currently open bins; BinsOpened the total
	// ever opened.
	OpenBins   int
	BinsOpened int
	// CostClosed is the usage-time cost of already-closed bins; OpenedAtSum
	// the sum of the open bins' opening times, so the accrued cost at time t
	// is CostAt(t) = CostClosed + OpenBins·t − OpenedAtSum.
	CostClosed  float64
	OpenedAtSum float64
	// Failure/admission accounting (zero on a fault-free, uncapped run).
	Rejected  int
	TimedOut  int
	ItemsLost int
	QueueLen  int
}

// CostAt returns the usage-time cost accrued by time t >= Clock: closed bins
// in full, open bins up to t.
func (s EngineStats) CostAt(t float64) float64 {
	return s.CostClosed + float64(s.OpenBins)*t - s.OpenedAtSum
}

// Stats captures an EngineStats view of the current state. Unlike Snapshot it
// works on finished engines too and never fails; on a poisoned engine it
// reports the state at the failure point.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		EventSeq:        e.eventSeq,
		Clock:           e.lastTime,
		Items:           e.list.Len(),
		ArrivalsPending: len(e.arrivals) - e.ai,
		Placements:      e.placements,
		Served:          e.served,
		OpenBins:        len(e.open) - e.holes,
		BinsOpened:      e.nextBinID,
		CostClosed:      e.res.Cost,
		Rejected:        e.res.Rejected,
		TimedOut:        e.res.TimedOut,
		ItemsLost:       e.res.ItemsLost,
		QueueLen:        len(e.waitq),
	}
	for _, b := range e.open {
		if b != nil {
			s.OpenedAtSum += b.OpenedAt
		}
	}
	return s
}
