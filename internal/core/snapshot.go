package core

import (
	"bytes"
	"fmt"
	"sort"

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
// from time zero would have accumulated by EventSeq. The persistence layer
// stores the identifying metadata (workload hash, policy name, fault plan)
// alongside and refuses mismatched restores.
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
	// RetrySeq is the tie-break sequence counter of the retry queue.
	RetrySeq int64

	// Dim and Items identify the instance shape, cross-checked on restore.
	Dim   int
	Items int

	// PolicyName is the registry name of the policy; PolicyState is its
	// PolicyStateCodec payload (nil for stateless policies).
	PolicyName  string
	PolicyState []byte

	// Bins are the open bins in opening order (ascending ID).
	Bins []BinSnapshot

	// Pending event queues, each in delivery order.
	Departures []DepartureSnapshot
	Crashes    []CrashSnapshot
	Retries    []RetrySnapshot

	// WaitQueue is the admission queue in FIFO order.
	WaitQueue []QueuedSnapshot

	// Attempts maps item ID to its eviction count so far (nil when no crash
	// has happened).
	Attempts map[int]int

	// Result is a deep copy of the partial result accumulated so far — the
	// usage-time cost of already-closed bins, placements, outcomes, and all
	// failure counters.
	Result *Result

	// Migration is the consolidation-pass state (nil iff the run was built
	// without WithMigration). Capturing the staged moves is what makes a
	// SIGKILL between two moves of one pass recoverable: the restored engine
	// resumes the pass mid-plan instead of replanning against a half-applied
	// state.
	Migration *MigrationSnapshot
}

// MigrationSnapshot captures the engine's migration state (DESIGN.md §14).
type MigrationSnapshot struct {
	// NextPass is the 1-based number of the next consolidation pass to
	// attempt (pass n fires at period·n).
	NextPass int64
	// PassTime is the staged pass's instant (meaningful only when Pending is
	// non-empty).
	PassTime float64
	// Pending are the staged moves not yet committed, in application order.
	Pending []MigrationMove
	// Redirects are the live departure-queue redirections of migrated items,
	// ascending by Seq.
	Redirects []RedirectSnapshot
}

// RedirectSnapshot maps one departure-queue key (depSeq: item-ID major,
// attempt minor) to the bin the item currently occupies.
type RedirectSnapshot struct {
	Seq   int64
	BinID int
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
	// Acc holds the exact per-dimension load accumulator state
	// (vector.Acc.AppendBinary payloads), one per dimension. Restore
	// cross-checks it against the accumulator rebuilt from ActiveIDs: the
	// limbs are a pure function of the active multiset, so any divergence
	// means the snapshot is corrupt.
	Acc [][]byte
}

// DepartureSnapshot is one pending departure event.
type DepartureSnapshot struct {
	Time float64
	// Seq is the queue's tie-break key (depSeq: item-ID major, placement
	// attempt minor).
	Seq    int64
	ItemID int
	// BinID is the bin the item was packed into. It may reference a bin that
	// has since crashed; such stale entries are preserved (the engine skips
	// them when they fire, and dropping them would change nothing but the
	// queue's internal state the determinism check compares).
	BinID int
}

// CrashSnapshot is one pending fault-injection crash event. BinID may
// reference a bin that already closed naturally (the engine ignores the
// event when it fires).
type CrashSnapshot struct {
	Time  float64
	BinID int
}

// RetrySnapshot is one pending re-dispatch of an evicted item.
type RetrySnapshot struct {
	Time float64
	// Seq is the retry queue's tie-break sequence (assignment order).
	Seq     int64
	ItemID  int
	Attempt int
}

// QueuedSnapshot is one admission-queue entry.
type QueuedSnapshot struct {
	ItemID   int
	Attempt  int
	QueuedAt float64
	Deadline float64
}

// cloneResult deep-copies a partial result so the snapshot cannot alias the
// live engine's accumulators.
func cloneResult(r *Result) *Result {
	c := *r
	c.Placements = append([]Placement(nil), r.Placements...)
	c.Bins = append([]BinUsage(nil), r.Bins...)
	c.Outcomes = make(map[int]Outcome, len(r.Outcomes))
	for k, v := range r.Outcomes {
		c.Outcomes[k] = v
	}
	return &c
}

// Snapshot captures the engine's complete state at the current event
// boundary. It fails on a poisoned or finished engine, on a run without the
// default history (WithHistory: the snapshot carries the partial Result),
// and for stateful policies that implement no PolicyStateCodec (see
// CheckpointablePolicy).
// The engine is unchanged apart from compaction of its open-bin slice, which
// the next dispatch would perform anyway.
func (e *Engine) Snapshot() (*Snapshot, error) {
	if e.err != nil {
		return nil, fmt.Errorf("core: cannot snapshot a failed engine: %w", e.err)
	}
	if e.finished {
		return nil, fmt.Errorf("core: cannot snapshot a finished engine")
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
		RetrySeq:    e.retrySeq,
		Dim:         e.list.Dim,
		Items:       e.list.Len(),
		PolicyName:  e.p.Name(),
		PolicyState: ps,
		Result:      cloneResult(e.res),
	}

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

	for _, ev := range e.departures.Sorted() {
		s.Departures = append(s.Departures, DepartureSnapshot{Time: ev.Time, Seq: ev.Seq, ItemID: ev.Payload.itemID, BinID: ev.Payload.binID})
	}
	for _, ev := range e.crashes.Sorted() {
		s.Crashes = append(s.Crashes, CrashSnapshot{Time: ev.Time, BinID: ev.Payload})
	}
	for _, ev := range e.retries.Sorted() {
		s.Retries = append(s.Retries, RetrySnapshot{Time: ev.Time, Seq: ev.Seq, ItemID: ev.Payload.it.ID, Attempt: ev.Payload.attempt})
	}
	for _, q := range e.waitq {
		s.WaitQueue = append(s.WaitQueue, QueuedSnapshot{ItemID: q.it.ID, Attempt: q.attempt, QueuedAt: q.queuedAt, Deadline: q.deadline})
	}
	if e.attempts != nil {
		s.Attempts = make(map[int]int, len(e.attempts))
		for k, v := range e.attempts {
			s.Attempts[k] = v
		}
	}
	if e.cfg.migrate != nil {
		m := &MigrationSnapshot{
			NextPass: e.migPass,
			Pending:  append([]MigrationMove(nil), e.pendingMoves...),
		}
		if len(e.pendingMoves) > 0 {
			m.PassTime = e.passTime
		}
		m.Redirects = make([]RedirectSnapshot, 0, len(e.redirects))
		for seq, binID := range e.redirects {
			m.Redirects = append(m.Redirects, RedirectSnapshot{Seq: seq, BinID: binID})
		}
		sort.Slice(m.Redirects, func(i, j int) bool { return m.Redirects[i].Seq < m.Redirects[j].Seq })
		s.Migration = m
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
// bin IDs, duplicated active items, accumulator limbs that disagree with the
// active multiset — and violations surface as errors, never panics, so
// corrupted checkpoint files degrade gracefully. Like NewEngine, the returned
// engine owns p until Finish or Close. A restored run keeps the default
// history, which the snapshot's partial Result seeds, so WithHistory is
// refused.
func RestoreEngine(l *item.List, p Policy, s *Snapshot, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	in, err := prepare(l, cfg.dynamic)
	if err != nil {
		return nil, err
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
	e, err := in.newEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			e.Close()
		}
	}()
	if s.ArrivalIdx < 0 || s.ArrivalIdx > len(e.arrivals) {
		return nil, corruptf("arrival index %d outside [0, %d]", s.ArrivalIdx, len(e.arrivals))
	}
	if s.EventSeq < 0 || s.NextBinID < 0 || s.Served < 0 || s.RetrySeq < 0 {
		return nil, corruptf("negative progress counter")
	}
	e.ai = s.ArrivalIdx
	e.eventSeq = s.EventSeq
	e.nextBinID = s.NextBinID
	e.served = s.Served
	e.retrySeq = s.RetrySeq

	// Rebuild the open bins. Active sizes come from the instance; the
	// accumulator limbs are rebuilt from the active multiset (the same pure
	// function the live engine maintains incrementally) and then compared
	// byte-for-byte against the snapshot's captured limbs — a free integrity
	// check on both the item set and the recorded loads.
	activeOwner := make(map[int]int, len(s.Bins))
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
		b := newBin(bs.ID, l.Dim, bs.OpenedAt, nil, nil)
		b.packed = bs.Packed
		for _, id := range bs.ActiveIDs {
			it, known := e.item(id)
			if !known {
				return nil, corruptf("bin %d holds unknown item %d", bs.ID, id)
			}
			if owner, dup := activeOwner[id]; dup {
				return nil, corruptf("item %d active in bins %d and %d", id, owner, bs.ID)
			}
			activeOwner[id] = bs.ID
			b.active[id] = it.Size
		}
		b.refreshLoadFromActive()
		for j := range b.acc {
			if got := b.acc[j].AppendBinary(nil); !bytes.Equal(got, bs.Acc[j]) {
				return nil, corruptf("bin %d dimension %d: snapshot load limbs disagree with active item set", bs.ID, j)
			}
		}
		b.openIdx = len(e.open)
		b.probe = e.probe
		e.open = append(e.open, b)
		e.binsByID[b.ID] = b
	}

	// Re-prime the event queues. Pushing in delivery order reproduces the
	// original delivery order exactly: pop order is a pure function of the
	// (Time, Seq) multiset, and each queue's Seq is reconstructible
	// (departures are keyed by item ID, crashes by bin ID, retries carry
	// their assigned sequence).
	for i, d := range s.Departures {
		if _, known := e.item(d.ItemID); !known {
			return nil, corruptf("departure %d references unknown item %d", i, d.ItemID)
		}
		if d.Seq>>32 != int64(d.ItemID) {
			return nil, corruptf("departure %d has sequence %d inconsistent with item %d", i, d.Seq, d.ItemID)
		}
		e.departures.PushAt(d.Time, d.Seq, departure{itemID: d.ItemID, binID: d.BinID})
	}
	for i, c := range s.Crashes {
		if cfg.injector == nil {
			return nil, corruptf("crash event %d in a snapshot restored without fault injection", i)
		}
		e.crashes.PushAt(c.Time, int64(c.BinID), c.BinID)
	}
	for i, r := range s.Retries {
		it, known := e.item(r.ItemID)
		if !known {
			return nil, corruptf("retry %d references unknown item %d", i, r.ItemID)
		}
		if r.Seq <= 0 || r.Seq > s.RetrySeq {
			return nil, corruptf("retry %d has sequence %d outside (0, %d]", i, r.Seq, s.RetrySeq)
		}
		if r.Attempt < 1 {
			return nil, corruptf("retry %d has attempt %d < 1", i, r.Attempt)
		}
		e.retries.PushAt(r.Time, r.Seq, retryDispatch{it: it, attempt: r.Attempt})
	}
	for i, q := range s.WaitQueue {
		it, known := e.item(q.ItemID)
		if !known {
			return nil, corruptf("queue entry %d references unknown item %d", i, q.ItemID)
		}
		e.waitq = append(e.waitq, queuedDispatch{it: it, attempt: q.Attempt, queuedAt: q.QueuedAt, deadline: q.Deadline})
	}
	if s.Attempts != nil {
		e.attempts = make(map[int]int, len(s.Attempts))
		for id, n := range s.Attempts {
			if _, known := e.item(id); !known {
				return nil, corruptf("attempt count for unknown item %d", id)
			}
			if n < 1 {
				return nil, corruptf("item %d has attempt count %d < 1", id, n)
			}
			e.attempts[id] = n
		}
	}

	// Migration state travels with the snapshot exactly when the run is
	// configured for it, mirroring the crash-event/injector pairing above.
	if cfg.migrate == nil && s.Migration != nil {
		return nil, corruptf("migration state in a snapshot restored without WithMigration")
	}
	if cfg.migrate != nil {
		m := s.Migration
		if m == nil {
			return nil, corruptf("snapshot of a migrating run carries no migration state")
		}
		if m.NextPass < 1 {
			return nil, corruptf("migration pass counter %d < 1", m.NextPass)
		}
		if len(m.Pending) > cfg.migrate.budget.MaxMoves {
			return nil, corruptf("%d staged moves exceed the per-pass budget %d", len(m.Pending), cfg.migrate.budget.MaxMoves)
		}
		for i, mv := range m.Pending {
			if mv.From == mv.To {
				return nil, corruptf("staged move %d relocates item %d from bin %d to itself", i, mv.ItemID, mv.From)
			}
			from, known := e.binsByID[mv.From]
			if !known {
				return nil, corruptf("staged move %d names unknown source bin %d", i, mv.From)
			}
			if _, known := e.binsByID[mv.To]; !known {
				return nil, corruptf("staged move %d names unknown target bin %d", i, mv.To)
			}
			if _, active := from.active[mv.ItemID]; !active {
				return nil, corruptf("staged move %d: item %d is not active in bin %d", i, mv.ItemID, mv.From)
			}
		}
		e.migPass = m.NextPass
		if len(m.Pending) > 0 {
			e.pendingMoves = append([]MigrationMove(nil), m.Pending...)
			e.passTime = m.PassTime
		}
		prevSeq := int64(-1)
		for i, r := range m.Redirects {
			if r.Seq <= prevSeq {
				return nil, corruptf("redirect %d out of sequence order", i)
			}
			prevSeq = r.Seq
			itemID := int(r.Seq >> 32)
			if _, known := e.item(itemID); !known {
				return nil, corruptf("redirect %d references unknown item %d", i, itemID)
			}
			if cfg.injector == nil {
				// Without crashes a redirected item is always active in its
				// redirect target; with them the target may legitimately be a
				// bin that has since crashed (the stale-skip path).
				b, known := e.binsByID[r.BinID]
				if !known {
					return nil, corruptf("redirect %d references unknown bin %d", i, r.BinID)
				}
				if _, active := b.active[itemID]; !active {
					return nil, corruptf("redirect %d: item %d is not active in bin %d", i, itemID, r.BinID)
				}
			}
			if e.redirects == nil {
				e.redirects = make(map[int64]int, len(m.Redirects))
			}
			e.redirects[r.Seq] = r.BinID
		}
	}

	e.res = cloneResult(s.Result)
	e.hist = (*resultHistory)(e.res)
	e.placements = len(e.res.Placements)

	resolve := func(id int) *Bin { return e.binsByID[id] }
	if err := unmarshalPolicyState(p, s.PolicyState, resolve); err != nil {
		return nil, err
	}
	// Move To Front's Select walks its recency list, so an open bin missing
	// from the list would silently never be chosen again. The list's entries
	// are open and distinct, so equal sizes mean it names every open bin.
	if mf, ok := p.(*MoveToFront); ok && len(mf.pos) != len(e.open) {
		return nil, corruptf("MoveToFront recency list covers %d bins, %d are open", len(mf.pos), len(e.open))
	}

	// Rebuild the held totals from the restored loads, which the limb check
	// above proved bit-identical to the original run's; Acc sums are
	// order-independent, so they round identically too. The bin index is
	// not rebuilt here: the restored result carries the run's peak open-bin
	// count, so the next dispatch builds the index exactly when the
	// uninterrupted run had it (buildIndex). The treap's shape is a pure
	// function of its contents, so that index counts the same fit checks as
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
