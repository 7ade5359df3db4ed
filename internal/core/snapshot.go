package core

import (
	"fmt"
	"strings"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// Snapshot is a complete, self-contained capture of an Engine's state at an
// event boundary — between two Steps (or before the first). It is plain data:
// no pointers into the live engine, so the persistence layer can serialise it
// and a later process can rebuild an equivalent engine with RestoreEngine.
//
// A snapshot does NOT embed the instance or the run options. Restore is
// handed the same item list, a policy of the same name, and the same Options
// as the original run; the snapshot records only what a deterministic re-run
// from time zero would have accumulated by EventSeq. The persistence layer
// stores the identifying metadata (workload hash, policy name) alongside and
// refuses mismatched restores.
//
// Only the run a placement server tenant holds is snapshotted: fault-free,
// uncapped and irrevocable, so its whole state is the open bins, the pending
// departures, the policy's state and the partial Result. A run configured
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

	// Departures are the pending departure events in delivery order.
	Departures []DepartureSnapshot

	// Result is a deep copy of the partial result accumulated so far: the
	// usage-time cost of already-closed bins, the placements in commit
	// order, the closed bins' records in the order they closed, and the
	// outcomes of the items that have one.
	Result *Result
}

// BinSnapshot captures one open bin.
type BinSnapshot struct {
	ID       int
	OpenedAt float64
	// Packed is the number of items ever packed into the bin.
	Packed int
	// ActiveIDs are the currently active item IDs, ascending. The items'
	// sizes are recovered from the instance on restore.
	ActiveIDs []int
	// Acc holds the exact per-dimension load sums (vector.Acc.AppendBinary
	// payloads), one per dimension. Restore cross-checks each against the
	// sum of the ActiveIDs' sizes: the sum is a pure function of the active
	// multiset, so any divergence means the snapshot is corrupt. The check
	// compares sums (vector.Acc.Equal), not bytes, so a payload written
	// before AppendBinary became canonical (a limb window wider than the
	// sum's digits, limbs not carried) restores too, and a snapshot of the
	// restored engine is the canonical one the uninterrupted run takes.
	Acc [][]byte
}

// DepartureSnapshot is one pending departure event.
type DepartureSnapshot struct {
	Time float64
	// Seq is the queue's tie-break key (depSeq: item-ID major, placement
	// attempt minor).
	Seq    int64
	ItemID int
	// BinID is the bin the item was packed into.
	BinID int
}

// cloneResult copies a partial result with its placement and bin records,
// so that a snapshot and the live engine share none. Outcomes is left nil:
// the live engine keeps its outcomes in its per-item table.
func cloneResult(r *Result) *Result {
	c := *r
	c.Placements = append([]Placement(nil), r.Placements...)
	c.Bins = append([]BinUsage(nil), r.Bins...)
	c.Outcomes = nil
	return &c
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
// a run without the default history (WithHistory: the snapshot carries the
// partial Result), and for stateful policies that implement no
// PolicyStateCodec (see CheckpointablePolicy).
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
		EventSeq:    e.eventSeq,
		ArrivalIdx:  e.ai,
		NextBinID:   e.nextBinID,
		Served:      e.served,
		Dim:         e.list.Dim,
		Items:       e.list.Len(),
		PolicyName:  e.p.Name(),
		PolicyState: ps,
		Result:      cloneResult(e.res),
	}
	// A snapshotted run is fault-free: its only outcomes are the served.
	s.Result.Outcomes, _ = e.outcomeMap(e.served)

	s.Bins = make([]BinSnapshot, 0, len(e.open))
	for _, b := range e.open {
		bs := BinSnapshot{
			ID:        b.ID,
			OpenedAt:  b.OpenedAt,
			Packed:    b.packed,
			ActiveIDs: b.ActiveItemIDs(),
			Acc:       make([][]byte, len(b.acc)),
		}
		for j := range b.acc {
			bs.Acc[j] = b.acc[j].AppendBinary(nil)
		}
		s.Bins = append(s.Bins, bs)
	}

	// A snapshotted run is fault-free, so every pending entry is its item's
	// live one and the item's slot names the bin it departs from. A run with
	// a departure order holds them all there, as the entries from the cursor
	// on whose item holds a bin (the others are items still to arrive); a
	// run without one, dynamic or restored, holds them all in the heap.
	for _, i := range e.depOrder[e.di:] {
		if b := e.slots[i].bin; b != 0 {
			it := &e.list.Items[i]
			s.Departures = append(s.Departures, DepartureSnapshot{
				Time: it.Departure, Seq: depSeq(it.ID, 0), ItemID: it.ID, BinID: e.bins[b].ID,
			})
		}
	}
	for _, ev := range e.departures.Sorted() {
		s.Departures = append(s.Departures, DepartureSnapshot{
			Time: ev.Time, Seq: ev.Seq, ItemID: e.list.Items[ev.Payload].ID, BinID: e.bins[e.slots[ev.Payload].bin].ID,
		})
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
// Every structural claim the snapshot makes is validated — unknown item or
// bin IDs, duplicated active items, accumulator sums that disagree with the
// active multiset, a departure entry whose bin does not hold its item, an
// active item without exactly one, an outcome for an unknown or active
// item, a closed-bin record that is not one per closed bin — and violations
// surface as errors, never panics, so corrupted checkpoint files degrade
// gracefully. Like NewEngine, the returned engine
// owns p until Finish or Close. A restored run keeps the default history,
// which the snapshot's partial Result seeds: its records, and its outcomes
// written back into the per-item table. So WithHistory is refused, and so
// are the options Snapshot refuses.
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
	if s.Result == nil {
		return nil, corruptf("missing partial result")
	}
	e, err := in.newEngine(p, cfg, in.takeKit())
	if err != nil {
		return nil, err
	}
	// A restored run reads no departure order: the snapshot's pending
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
	// function the live engine maintains incrementally) and then compared
	// with the snapshot's captured sums — a free integrity check on both the
	// item set and the recorded loads. The rebuilt accumulators stay: they
	// hold the captured sums, and captured is reused bin after bin. Until
	// its departure entry is read below, an active item's slot holds
	// attempt -1.
	var captured vector.Acc
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
		if bs.Packed < len(bs.ActiveIDs) {
			return nil, corruptf("bin %d packed %d < %d active", bs.ID, bs.Packed, len(bs.ActiveIDs))
		}
		b := e.openBin(bs.ID, bs.OpenedAt)
		for _, id := range bs.ActiveIDs {
			i, known := e.index(id)
			if !known {
				return nil, corruptf("bin %d holds unknown item %d", bs.ID, id)
			}
			if owner := e.slots[i].bin; owner != 0 {
				return nil, corruptf("item %d active in bins %d and %d", id, e.bins[owner].ID, bs.ID)
			}
			e.place(b, i, -1)
			active++
		}
		b.packed = bs.Packed
		for j := range b.acc {
			if captured.UnmarshalBinary(bs.Acc[j]) != nil || !captured.Equal(&b.acc[j]) {
				return nil, corruptf("bin %d dimension %d: snapshot load sums disagree with active item set", bs.ID, j)
			}
		}
	}

	// Re-prime the departure heap. Pushing in delivery order reproduces
	// the original delivery order exactly: pop order is a pure function of
	// the (Time, Seq) multiset, and each Seq is reconstructible from its
	// item (depSeq). A snapshotted run is fault-free, so each active item
	// has exactly one entry, at attempt 0, naming the bin that holds it.
	for i, d := range s.Departures {
		k, known := e.index(d.ItemID)
		if !known {
			return nil, corruptf("departure %d references unknown item %d", i, d.ItemID)
		}
		if d.Seq != depSeq(d.ItemID, 0) {
			return nil, corruptf("departure %d has sequence %d inconsistent with item %d", i, d.Seq, d.ItemID)
		}
		sl := &e.slots[k]
		if sl.bin == 0 || e.bins[sl.bin].ID != d.BinID {
			return nil, corruptf("departure %d names bin %d, which does not hold item %d", i, d.BinID, d.ItemID)
		}
		if sl.attempt != -1 {
			return nil, corruptf("item %d has two pending departures", d.ItemID)
		}
		sl.attempt = 0
		active--
		e.departures.PushAt(d.Time, d.Seq, k)
	}
	if active != 0 {
		return nil, corruptf("%d active items have no pending departure", active)
	}

	// The outcomes go back into the per-item table. A snapshotted run is
	// fault-free, so each is the outcome of an item served: none for an item
	// still active, and one for each item counted served.
	for id, o := range s.Result.Outcomes {
		k, known := e.index(id)
		if !known {
			return nil, corruptf("outcome for unknown item %d", id)
		}
		if b := e.slots[k].bin; b != 0 {
			return nil, corruptf("outcome for item %d, which is active in bin %d", id, e.bins[b].ID)
		}
		if o != OutcomeServed {
			return nil, corruptf("item %d has outcome %v, but a snapshotted run serves every item", id, o)
		}
		e.outcomes[k] = uint8(o) + 1
	}
	if n := len(s.Result.Outcomes); n != s.Served {
		return nil, corruptf("%d outcomes for %d items served", n, s.Served)
	}

	// Every bin below the next bin ID is open or has closed once, leaving
	// one record, so Finish finds one record per bin opened. Both counts
	// are of decoded entries, which bounds the table.
	if n := len(s.Result.Bins) + len(s.Bins); n != s.NextBinID {
		return nil, corruptf("%d closed-bin records and %d open bins for %d bins opened", len(s.Result.Bins), len(s.Bins), s.NextBinID)
	}
	accounted := make([]bool, s.NextBinID)
	for _, bs := range s.Bins {
		accounted[bs.ID] = true
	}
	for _, u := range s.Result.Bins {
		switch {
		case u.BinID < 0 || u.BinID >= s.NextBinID:
			return nil, corruptf("closed-bin record of bin %d, outside [0, %d)", u.BinID, s.NextBinID)
		case accounted[u.BinID]:
			return nil, corruptf("closed-bin record of bin %d, which is open or recorded twice", u.BinID)
		}
		accounted[u.BinID] = true
	}

	// The clock is the time of the last committed event. A snapshotted run
	// commits only arrivals and departures, and every item it dispatched was
	// placed, so that is the later of the last committed arrival and the
	// departures of the dispatched items no open bin holds any more.
	for _, k := range e.arrivals[:e.ai] {
		it := &e.list.Items[k]
		t := it.Arrival
		if e.slots[k].bin == 0 {
			t = it.Departure
		}
		e.lastTime = max(e.lastTime, t)
	}

	e.res = cloneResult(s.Result)
	e.hist = (*resultHistory)(e.res)
	e.placements = len(e.res.Placements)

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
	// not rebuilt here: the restored result carries the run's peak open-bin
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
