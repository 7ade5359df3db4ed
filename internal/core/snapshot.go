package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"

	"dvbp/internal/item"
)

// Snapshot is a complete, self-contained capture of an Engine's state at an
// event boundary — between two Steps (or before the first). It is plain data:
// no pointers into the live engine, so the persistence layer can serialise it
// and a later process can rebuild an equivalent engine with RestoreEngine.
//
// A snapshot does NOT embed the instance or the run options. Restore is
// handed the same item list, a policy of the same name, and the same Options
// as the original run; the snapshot records only what a deterministic re-run
// from time zero would have accumulated by EventSeq and restore cannot
// derive from the instance. The persistence layer stores the identifying
// metadata (workload hash, policy name) alongside and refuses mismatched
// restores.
//
// Only the run a placement server tenant holds is snapshotted: fault-free,
// uncapped and irrevocable, so each committed arrival was placed once, in
// arrival order, each item still active departs at its first placement, and
// a bin is open from its first item's arrival to its last item's departure.
// Beside its counters, its state is therefore the open bins, the policy's
// state, the peak, the cost so far and the bin of each placement;
// RestoreEngine derives the pending departures, the placement records, the
// outcomes, the clock, the bins' records and the Result's header from them
// and the instance. A run configured
// with WithFaults, WithMaxBins, WithAdmissionQueue or an enabled
// WithMigration is refused (Snapshot, RestoreEngine) and resumes by
// re-stepping its op log from the start (DESIGN.md §10).
type Snapshot struct {
	// EventSeq is the number of events committed before the capture.
	EventSeq int64
	// ArrivalIdx is the index of the next unconsumed arrival in the
	// (arrival, SeqNo)-sorted item order.
	ArrivalIdx int
	// NextBinID is the ID the next opened bin will receive.
	NextBinID int
	// Served is the number of items that have departed normally.
	Served int

	// Dim and Items identify the instance shape, cross-checked on restore.
	Dim   int
	Items int

	// PolicyName is the registry name of the policy; PolicyState is its
	// PolicyStateCodec payload (nil for stateless policies).
	PolicyName  string
	PolicyState []byte

	// Bins are the open bins in opening order (ascending ID).
	Bins []BinSnapshot

	// MaxConcurrentBins is the run's peak open-bin count so far.
	MaxConcurrentBins int
	// Cost is the usage time of the bins closed so far (Result.Cost),
	// summed in the order they closed.
	Cost float64
	// Placed holds the ID of the bin each committed arrival was packed
	// into, in arrival order: one entry per arrival before ArrivalIdx.
	Placed []int
}

// BinSnapshot captures one open bin. Its opening time and packed count are
// derived on restore from the placements into it.
type BinSnapshot struct {
	ID int
	// ActiveIDs are the currently active item IDs, ascending. The items'
	// sizes are recovered from the instance on restore.
	ActiveIDs []int
	// Acc holds the exact per-dimension load sums (vector.Acc.AppendBinary
	// payloads), one per dimension. The payload is canonical, a function of
	// the sum alone, and the sum a function of the active multiset, so
	// restore compares each byte for byte with the payload of the sum it
	// rebuilds from the ActiveIDs' sizes; any difference means the snapshot
	// is corrupt.
	Acc [][]byte
}

// unsnapshottable names the options that keep a run out of snapshots, or
// returns "" when the run's state is what Snapshot carries.
func (c *config) unsnapshottable() string {
	var opts []string
	if c.injector != nil {
		opts = append(opts, "WithFaults")
	}
	if c.maxBins > 0 {
		opts = append(opts, "WithMaxBins")
	}
	if c.queueWhenFull {
		opts = append(opts, "WithAdmissionQueue")
	}
	if c.migrate != nil {
		opts = append(opts, "WithMigration")
	}
	return strings.Join(opts, ", ")
}

// Snapshot captures the engine's complete state at the current event
// boundary. It fails on a poisoned or finished engine, on a run configured
// with faults, a bin cap, an admission queue or migration (see Snapshot), on
// a run without the default history (WithHistory: the snapshot's placements
// and bin records are the ones it keeps), and for stateful policies that
// implement no PolicyStateCodec (see CheckpointablePolicy).
// The engine is unchanged apart from compaction of its open-bin slice, which
// the next dispatch would perform anyway.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if e.err != nil {
		return nil, fmt.Errorf("core: cannot snapshot a failed engine: %w", e.err)
	}
	if e.finished {
		return nil, fmt.Errorf("core: cannot snapshot a finished engine")
	}
	if opts := e.cfg.unsnapshottable(); opts != "" {
		return nil, fmt.Errorf("core: cannot snapshot a run configured with %s; it resumes by replay", opts)
	}
	if !e.keepsResult() {
		return nil, fmt.Errorf("core: cannot snapshot a run without the default history (WithHistory)")
	}
	ps, err := marshalPolicyState(e.p)
	if err != nil {
		return nil, err
	}
	e.compact()

	s := &Snapshot{
		EventSeq:          e.eventSeq,
		ArrivalIdx:        e.ai,
		NextBinID:         e.nextBinID,
		Served:            e.served,
		Dim:               e.list.Dim,
		Items:             e.list.Len(),
		PolicyName:        e.p.Name(),
		PolicyState:       ps,
		Bins:              make([]BinSnapshot, 0, len(e.open)),
		MaxConcurrentBins: e.res.MaxConcurrentBins,
		Cost:              e.res.Cost,
		// A snapshotted run places each arrival once, as it commits, so
		// its placements are in arrival order.
		Placed: make([]int, len(e.res.Placements)),
	}
	for k, pl := range e.res.Placements {
		s.Placed[k] = pl.BinID
	}
	for _, b := range e.open {
		bs := BinSnapshot{
			ID:        b.ID,
			ActiveIDs: b.ActiveItemIDs(),
			Acc:       make([][]byte, len(b.acc)),
		}
		for j := range b.acc {
			bs.Acc[j] = b.acc[j].AppendBinary(nil)
		}
		s.Bins = append(s.Bins, bs)
	}
	return s, nil
}

// corruptf builds the error RestoreEngine surfaces for internally
// inconsistent snapshots. The persistence layer wraps it into its structured
// CorruptionError; within core it is a plain error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("core: inconsistent snapshot: "+format, args...)
}

// RestoreEngine rebuilds an engine from a snapshot taken by Snapshot. The
// caller supplies the same instance, a policy with the snapshot's name, and
// the same Options as the original run; the restored engine then regenerates
// the original run's remaining events bit for bit (the determinism contract
// replay verification is built on).
//
// Restore derives what the snapshot does not store. Each active item's
// departure goes back into the queue at attempt 0. Each committed arrival's
// placement record is rebuilt from the arrival order and its bin: the item,
// its arrival time, attempt 0, and Opened when the bin is the next one to
// open. Each committed arrival that no open bin holds has been served, and
// the clock is the last of the committed arrivals and those departures. A
// bin opened at the arrival of the placement that opened it, was packed once
// per placement into it, and, unless it is open, closed at the latest
// departure among them, which gives each bin's record. The cost is the
// snapshot's, and the Result's header is the one the instance and the policy
// give.
//
// Every structural claim the snapshot makes is validated — unknown item or
// bin IDs, duplicated active items, load sums whose canonical bytes differ
// from those of the active multiset's, placements that do not add up to the
// committed arrivals, the bins opened, the open bins' items and the items
// served, a peak below the open-bin count, a negative or non-finite cost —
// and violations surface as errors, never panics, so corrupted checkpoint
// files degrade gracefully. Like NewEngine, the returned engine owns p until
// Finish or Close. A restored run keeps the default history, which the
// rebuilt records seed, so WithHistory is refused, and so are the options
// Snapshot refuses.
func RestoreEngine(l *item.List, p Policy, s *Snapshot, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	in, err := prepare(l, cfg.dynamic)
	if err != nil {
		return nil, err
	}
	if opts := cfg.unsnapshottable(); opts != "" {
		return nil, fmt.Errorf("core: cannot restore a run configured with %s; it resumes by replay", opts)
	}
	if cfg.historySet {
		return nil, fmt.Errorf("core: cannot restore a run without the default history (WithHistory)")
	}
	if s == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	// A dynamic run's list grows after any checkpoint, so the snapshot may
	// cover a strict prefix of the supplied instance; a static run's list is
	// immutable and must match exactly.
	if s.Dim != l.Dim || s.Items > l.Len() || (!cfg.dynamic && s.Items != l.Len()) {
		return nil, corruptf("instance shape mismatch: snapshot d=%d n=%d, instance d=%d n=%d", s.Dim, s.Items, l.Dim, l.Len())
	}
	if s.PolicyName != p.Name() {
		return nil, corruptf("policy mismatch: snapshot %q, supplied %q", s.PolicyName, p.Name())
	}
	e, err := in.newEngine(p, cfg, in.takeKit())
	if err != nil {
		return nil, err
	}
	// A restored run reads no departure order: the active items'
	// departures, and those of the run's later placements, go into the heap.
	e.depOrder = nil
	ok := false
	defer func() {
		if !ok {
			e.Close()
		}
	}()
	if s.ArrivalIdx < 0 || s.ArrivalIdx > len(e.arrivals) {
		return nil, corruptf("arrival index %d outside [0, %d]", s.ArrivalIdx, len(e.arrivals))
	}
	if s.EventSeq < 0 || s.NextBinID < 0 || s.Served < 0 {
		return nil, corruptf("negative progress counter")
	}
	e.ai = s.ArrivalIdx
	e.eventSeq = s.EventSeq
	e.nextBinID = s.NextBinID
	e.served = s.Served

	// Rebuild the open bins. Active sizes come from the instance; the
	// accumulators are rebuilt from the active multiset (the same pure
	// function the live engine maintains incrementally), and the canonical
	// bytes of their sums are compared with the snapshot's — a free
	// integrity check on both the item set and the recorded loads. Each
	// active item departs at its first placement, so its departure goes into
	// the heap at attempt 0. Pushing in any order reproduces the original
	// delivery order exactly: pop order is a pure function of the (Time, Seq)
	// multiset, and no two items share a key (depSeq). A bin's opening time
	// and packed count come from the placements below.
	var sum []byte
	active := 0
	prevID := -1
	for _, bs := range s.Bins {
		if bs.ID <= prevID {
			return nil, corruptf("bins out of order: %d after %d", bs.ID, prevID)
		}
		prevID = bs.ID
		if bs.ID >= s.NextBinID {
			return nil, corruptf("open bin %d >= next bin ID %d", bs.ID, s.NextBinID)
		}
		if len(bs.Acc) != l.Dim {
			return nil, corruptf("bin %d has %d accumulator dimensions, want %d", bs.ID, len(bs.Acc), l.Dim)
		}
		if len(bs.ActiveIDs) == 0 {
			return nil, corruptf("bin %d is open but empty", bs.ID)
		}
		b := e.openBin(bs.ID, 0)
		for _, id := range bs.ActiveIDs {
			i, known := e.index(id)
			if !known {
				return nil, corruptf("bin %d holds unknown item %d", bs.ID, id)
			}
			if owner := e.slots[i].bin; owner != 0 {
				return nil, corruptf("item %d active in bins %d and %d", id, e.bins[owner].ID, bs.ID)
			}
			e.place(b, i, 0)
			e.departures.PushAt(e.list.Items[i].Departure, depSeq(id, 0), i)
			active++
		}
		for j := range b.acc {
			if sum = b.acc[j].AppendBinary(sum[:0]); !bytes.Equal(sum, bs.Acc[j]) {
				return nil, corruptf("bin %d dimension %d: snapshot load sums disagree with active item set", bs.ID, j)
			}
		}
	}
	if s.MaxConcurrentBins < len(s.Bins) {
		return nil, corruptf("peak of %d open bins, below the %d open", s.MaxConcurrentBins, len(s.Bins))
	}
	e.res.MaxConcurrentBins = s.MaxConcurrentBins
	if s.Cost < 0 || math.IsNaN(s.Cost) || math.IsInf(s.Cost, 0) {
		return nil, corruptf("cost %v is negative or not finite", s.Cost)
	}
	e.res.Cost = s.Cost

	// Rebuild the placement records, one per committed arrival in arrival
	// order, and each bin's record, indexed by ID. Bins open in ID order, so
	// a placement into the next bin to open opened it, at the placement's
	// arrival. A bin was packed once per placement into it and, once
	// closed, closed at the latest departure among them: nothing but its
	// items' departures empties a bin in a snapshotted run. In the same
	// pass, mark served each committed arrival that no open bin holds, and
	// take the clock: the time of the last committed event, which in a run
	// that places every item it dispatches is the later of the last
	// committed arrival and the served items' departures.
	if len(s.Placed) != e.ai {
		return nil, corruptf("%d placements for %d committed arrivals", len(s.Placed), e.ai)
	}
	e.res.Placements = slices.Grow(e.res.Placements, e.ai)
	var bins []BinUsage
	served := 0
	for k, i := range e.arrivals[:e.ai] {
		it, id := &e.list.Items[i], s.Placed[k]
		if id < 0 || id > len(bins) {
			return nil, corruptf("placement %d into bin %d, past the next bin to open, %d", k, id, len(bins))
		}
		e.res.Placements = append(e.res.Placements, Placement{ItemID: it.ID, BinID: id, Opened: id == len(bins), Time: it.Arrival})
		if id == len(bins) {
			bins = push(bins, BinUsage{BinID: id, OpenedAt: it.Arrival, ClosedAt: it.Departure})
		}
		bins[id].Packed++
		bins[id].ClosedAt = max(bins[id].ClosedAt, it.Departure)
		t := it.Arrival
		if b := e.slots[i].bin; b == 0 {
			t = it.Departure
			e.outcomes[i] = uint8(OutcomeServed) + 1
			served++
		} else if e.bins[b].ID != id {
			return nil, corruptf("item %d is active in bin %d, but its placement names bin %d", it.ID, e.bins[b].ID, id)
		}
		e.lastTime = max(e.lastTime, t)
	}
	e.placements = e.ai
	if len(bins) != s.NextBinID {
		return nil, corruptf("placements open %d bins, but %d bins opened", len(bins), s.NextBinID)
	}
	if served+active != e.ai {
		return nil, corruptf("%d items served and %d active, but %d arrivals committed", served, active, e.ai)
	}
	if served != s.Served {
		return nil, corruptf("%d committed arrivals left their bins, but %d items served", served, s.Served)
	}

	// The open bins, in ascending ID order, take their opening time and
	// packed count from their records; every other bin has closed and
	// keeps its record. Finish puts the records in ID order.
	closed, k := bins[:0], 0
	for _, u := range bins {
		if k < len(e.open) && e.open[k].ID == u.BinID {
			e.open[k].OpenedAt, e.open[k].packed = u.OpenedAt, u.Packed
			k++
			continue
		}
		closed = append(closed, u)
	}
	e.res.Bins = closed

	resolve := e.binByID
	if err := unmarshalPolicyState(p, s.PolicyState, resolve); err != nil {
		return nil, err
	}
	// Move To Front's Select walks its recency list, so an open bin missing
	// from the list would silently never be chosen again. The list's entries
	// are open and distinct, so equal sizes mean it names every open bin.
	if mf, ok := p.(*MoveToFront); ok && len(mf.pos) != len(e.open) {
		return nil, corruptf("MoveToFront recency list covers %d bins, %d are open", len(mf.pos), len(e.open))
	}

	// Rebuild the held totals from the restored loads, which the sum check
	// above proved bit-identical to the original run's; Acc sums are
	// order-independent, so they round identically too. The bin index is
	// not rebuilt here: the restored engine carries the run's peak open-bin
	// count, so the next dispatch builds the index exactly when the
	// uninterrupted run had it (buildIndex). The index's layout is a pure
	// function of the open set, so that index counts the same fit checks as
	// the uninterrupted run's.
	for _, b := range e.open {
		e.totalsAdd(b)
	}
	if err := e.auditOpenSet(); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}
