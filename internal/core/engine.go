package core

import (
	"cmp"
	"fmt"
	"math"

	"dvbp/internal/binindex"
	"dvbp/internal/eventq"
	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// binRef renders a bin choice for divergence diagnostics.
func binRef(b *Bin) string {
	if b == nil {
		return "a new bin (nil)"
	}
	return fmt.Sprintf("bin %d", b.ID)
}

// Option configures a simulation run.
type Option func(*config)

type config struct {
	clairvoyant  bool
	audit        *Audit
	observer     Observer
	linearSelect bool
	dynamic      bool
	// indexPeak, when non-zero, replaces indexMinPeak as the peak open-bin
	// count at which an IndexedPolicy's index is built. Only tests set it
	// (withIndexPeak), to run the index on small fleets.
	indexPeak int

	// Failure/recovery configuration (see failure.go).
	injector      FailureInjector
	retry         RetryPolicy
	maxBins       int
	queueWhenFull bool
	queueDeadline float64

	// Live-migration configuration (see migrate.go); nil when disabled.
	migrate *migrateConfig
}

// WithClairvoyance exposes item departure times to the policy (Request.
// HasDeparture = true). This enables the clairvoyant DVBP variant discussed
// as future work in Section 8; the paper's own algorithms never need it.
func WithClairvoyance() Option {
	return func(c *config) { c.clairvoyant = true }
}

// WithAudit records every packing decision into a (caller-owned) Audit for
// invariant checking in tests. Audit mode also arms the fast-path oracle: on
// either fast Select path (the bin index or the held open-load totals) every
// decision is re-derived through the policy's own Select and compared, and
// after every mutation of the open set the index's structural invariants are
// re-validated and the held totals are checked against a fresh sum.
func WithAudit(a *Audit) Option {
	return func(c *config) { c.audit = a }
}

// WithLinearSelect makes the engine call every policy's own Select, the
// O(open) scan, where it would otherwise take a fast path: the bin index for
// Worst Fit and for Best Fit at d = 1 (IndexedPolicy) once the run's peak
// has reached indexMinPeak open bins, or the engine-held open-load totals
// for AdaptiveHybrid. The scan is the differential oracle both fast paths
// are tested against (DESIGN.md §11); production runs have no reason to use
// this option.
func WithLinearSelect() Option {
	return func(c *config) { c.linearSelect = true }
}

// Observer receives engine lifecycle callbacks; used by instrumentation such
// as the Theorem 2 leading-interval decomposition. Any method may be nil-safe
// no-op via BaseObserver.
type Observer interface {
	// BeforePack fires when an item is about to be dispatched, after all
	// events at or before the dispatch time have been processed. Under
	// admission control (WithMaxBins) the dispatch may fail: the follow-up
	// is then ItemQueued or ItemRejected (FailureObserver) instead of
	// AfterPack.
	BeforePack(req Request, open []*Bin)
	// AfterPack fires after the item is packed.
	AfterPack(req Request, b *Bin, opened bool)
	// BinClosed fires when a bin closes at time t — its last item departed,
	// or fault injection crashed it (in which case BinCrashed follows).
	BinClosed(b *Bin, t float64)
}

// WithObserver attaches an Observer to the run.
func WithObserver(o Observer) Option {
	return func(c *config) { c.observer = o }
}

// SelectObserver is an optional extension of Observer. When the attached
// Observer also implements SelectObserver, the engine counts the fit checks
// each Policy.Select performs and reports them after every decision — the
// per-decision accounting the metrics layer records.
//
// chosen is Select's return value: nil means the policy declined every open
// bin and the engine opened a fresh one. fitChecks counts the feasibility
// evaluations the decision performed: on the linear path these are the
// policy's own Bin.Fits calls and the bins its shared scan loops tested (one
// check per bin examined), on the indexed path the bin store's per-entry
// and subtree-prune evaluations (its O(1) bucket-mask rejections are not
// counted — they evaluate no load vector). The engine's feasibility re-check
// while packing is never included. Runs whose observer does not implement
// SelectObserver pay no counting overhead.
type SelectObserver interface {
	// AfterSelect fires after Policy.Select returns, before the item is
	// packed (and before any new bin is opened).
	AfterSelect(req Request, chosen *Bin, fitChecks int)
}

// DepartureObserver is an optional extension of Observer for instrumentation
// that tracks live per-bin state (the fragmentation integrals in
// internal/metrics). ItemDeparted fires after a normal departure is removed
// from its bin when the bin stays open; a departure that empties the bin
// fires BinClosed instead, and crash evictions fire BinCrashed
// (FailureObserver) after BinClosed. Together the three callbacks cover
// every mutation of the open set at its event time.
type DepartureObserver interface {
	// ItemDeparted fires at time t after the item has been removed from b
	// (b's load already reflects the removal); b remains open.
	ItemDeparted(itemID int, b *Bin, t float64)
}

// BaseObserver is an Observer with no-op methods, for embedding.
type BaseObserver struct{}

// BeforePack implements Observer.
func (BaseObserver) BeforePack(Request, []*Bin) {}

// AfterPack implements Observer.
func (BaseObserver) AfterPack(Request, *Bin, bool) {}

// BinClosed implements Observer.
func (BaseObserver) BinClosed(*Bin, float64) {}

type departure struct {
	itemID int
	binID  int
}

// depSeq is the departure queue's tie-break key: item-ID major, placement
// attempt minor. Item IDs alone are not unique — an item evicted by a crash
// and re-placed has one stale entry per earlier placement sharing its
// departure time — and duplicate (Time, Seq) keys would make delivery order
// depend on heap insertion history rather than on the event multiset,
// breaking snapshot/restore bit-identity. With the attempt in the low bits,
// same-instant departures of distinct items still fire in ascending item-ID
// order (the engine's documented tie-break) and an item's stale entries
// deterministically precede its live one. Item.Validate bounds IDs to
// [0, item.MaxID], so the shift cannot overflow and no two items share a
// key.
func depSeq(itemID, attempt int) int64 {
	return int64(itemID)<<32 | int64(uint32(attempt))
}

// retryDispatch is a scheduled re-dispatch of an evicted item.
type retryDispatch struct {
	it      item.Item
	attempt int
}

// queuedDispatch is one admission-queue entry, FIFO by enqueue order.
type queuedDispatch struct {
	it       item.Item
	attempt  int
	queuedAt float64
	deadline float64 // absolute drop time (inclusive)
}

// Event classes: when several events share a time instant they are processed
// in this order. Departures free capacity first (half-open intervals);
// crashes evict next, so a same-instant departure completes before the crash;
// re-dispatches of evicted items precede fresh arrivals (they have been
// waiting longer).
const (
	evDeparture = iota
	evCrash
	evRetry
	evArrival
	evMigration
	evNone
)

// EventClass labels one committed engine event in an EventRecord. The values
// mirror the engine's same-instant processing order (departure < crash <
// retry < arrival) and are stable across versions: internal/persist folds
// them into the event digest it stores on disk.
type EventClass uint8

// The five event classes a Step can commit. EventMigration is last in the
// same-instant order: a consolidation pass at time t observes the state after
// all of t's departures, crashes, retries and arrivals have settled.
const (
	EventDeparture EventClass = evDeparture
	EventCrash     EventClass = evCrash
	EventRetry     EventClass = evRetry
	EventArrival   EventClass = evArrival
	EventMigration EventClass = evMigration
)

// String renders the class name.
func (c EventClass) String() string {
	switch c {
	case EventDeparture:
		return "departure"
	case EventCrash:
		return "crash"
	case EventRetry:
		return "retry"
	case EventArrival:
		return "arrival"
	case EventMigration:
		return "migration"
	}
	return fmt.Sprintf("EventClass(%d)", uint8(c))
}

// EventRecord describes one committed engine event — the unit the
// persistence layer's event digest folds in. Because the engine is
// deterministic, the sequence of EventRecords is a pure function of
// (instance, policy, options); a recovered engine must regenerate it bit
// for bit.
type EventRecord struct {
	// Seq is the 1-based index of the event in the run.
	Seq int64
	// Class is the event kind.
	Class EventClass
	// Time is the simulated instant the event was processed at.
	Time float64
	// ItemID identifies the item for departures, arrivals, retries and
	// migration moves; -1 for crashes.
	ItemID int
	// BinID is the affected bin: the departed-from or crashed bin, the bin
	// the dispatch placed into (-1 when the dispatch was queued, rejected,
	// or — for departures under faults — the bin was already gone), or the
	// migration move's target bin (the source follows deterministically
	// from the plan).
	BinID int
	// Placed reports that an arrival/retry dispatch packed its item.
	Placed bool
	// Opened reports that the placement opened a fresh bin.
	Opened bool
}

// Engine is the Any Fit simulation engine (Algorithm 1) in steppable form:
// NewEngine validates and primes a run, each Step commits exactly one event
// (departure, crash, retry re-dispatch, or arrival — including every
// cascading consequence: evictions, admission-queue drains), and Finish
// seals the run into a Result. Simulate wraps the three for callers that
// need no mid-run access.
//
// Stepping exists for the persistence layer: between any two Steps the
// engine's complete state can be captured with Snapshot and later rebuilt
// with RestoreEngine, and the EventRecord stream feeds the event digest.
// An Engine is single-goroutine; it holds its Policy exclusively (the
// concurrent-reuse guard) until Finish or Close releases it.
type Engine struct {
	cfg  config
	p    Policy
	list *item.List

	// arrivals holds the indices of list.Items in (Arrival, SeqNo) order;
	// the items themselves are read in place (arrivals.go). shape folds
	// span(R) and μ over the same order.
	arrivals []int32
	ai       int // next arrival index
	shape    shape

	open  []*Bin // opening order (ascending ID); may hold tombstones until compacted
	holes int    // tombstone (nil) count in open

	departures eventq.Queue[departure]
	crashes    eventq.Queue[int] // payload: bin ID
	retries    eventq.Queue[retryDispatch]
	retrySeq   int64
	waitq      []queuedDispatch

	res       *Result
	nextBinID int
	binsByID  map[int]*Bin
	byID      map[int]int32 // item ID -> list index, built on first lookup (item)
	attempts  map[int]int   // item ID -> eviction count (allocated on first crash)
	served    int
	eventSeq  int64

	// Spare lists (closeBinAt): the zeroed accumulators of closed bins and
	// the emptied item maps of bins that closed empty, which the next bins
	// to open take first. Neither list holds more than the run's peak number
	// of open bins, and neither is snapshot state.
	spareAcc    [][]vector.Acc
	spareActive []map[int]vector.Vector

	probe  *fitProbe
	selObs SelectObserver
	fObs   FailureObserver
	dObs   DepartureObserver
	mObs   MigrationObserver

	// Migration pass state (see migrate.go; all zero/nil when cfg.migrate
	// is nil).
	// migPass is the 1-based number of the next consolidation pass to
	// attempt (pass n fires at period·n); pendingMoves are the staged moves
	// of the in-progress pass at passTime, committed one per Step; redirects
	// maps a moved item's live departure-queue key (depSeq) to its current
	// bin.
	migPass      int64
	pendingMoves []MigrationMove
	passTime     float64
	redirects    map[int64]int

	// Fast Select paths, nil unless the policy takes one at the run's
	// dimension and WithLinearSelect does not force the scan. The engine
	// mirrors every change to the open set into them. idx, keyed by ixKey,
	// answers an IndexedPolicy's Select with its leftmost feasible entry; it
	// is built at the first dispatch after the run's peak open-bin count
	// has reached ixFrom (buildIndex) and kept to the end of the run.
	// totals holds the exact per-dimension sum of the open bins' loads,
	// which tp reads in place of re-summing the bins (tot is its rounding
	// scratch).
	idx    *BinIndex
	ixKey  func(*Bin) (float64, int64)
	ixFrom int
	tp     totalsPolicy
	totals []vector.Acc
	tot    vector.Vector

	evictIDs []int // scratch reused across crashes

	// lastTime is the time of the most recent committed event — the floor
	// below which a dynamic run must not admit new arrivals (AppendArrival).
	// It is not snapshotted: replay re-establishes it event by event, and the
	// dynamic caller owns the authoritative admission watermark (DESIGN.md
	// §12).
	lastTime float64

	err      error // sticky: the engine is poisoned after any Step error
	finished bool  // Finish has sealed the result
	released bool  // the policy guard has been released
}

// NewEngine validates the instance and prepares a run. The returned engine
// owns p until Finish or Close; callers that abandon a run without finishing
// it must Close it to release the policy-reuse guard.
//
// The engine reads l.Items in place until Finish or Close, item sizes
// included, so the caller must not mutate the list during the run. A dynamic
// run grows the list itself (AppendArrival).
func NewEngine(l *item.List, p Policy, opts ...Option) (*Engine, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if err := validateList(l, cfg.dynamic); err != nil {
		return nil, err
	}
	if cfg.injector != nil && cfg.retry == nil {
		cfg.retry = retryNow{}
	}
	if err := acquirePolicy(p); err != nil {
		return nil, err
	}
	p.Reset()
	return newEngineShell(l, p, cfg), nil
}

// newEngineShell builds the run scaffolding shared by NewEngine and
// RestoreEngine: the policy is already acquired and reset; the arrival order
// is built, but no events have been primed.
func newEngineShell(l *item.List, p Policy, cfg config) *Engine {
	e := &Engine{
		cfg:      cfg,
		p:        p,
		list:     l,
		arrivals: l.ArrivalOrder(),
		binsByID: make(map[int]*Bin),
	}
	for _, i := range e.arrivals {
		e.shape.add(l.Items[i].Arrival, l.Items[i].Departure)
	}
	e.res = &Result{
		Algorithm: p.Name(), Dim: l.Dim, Items: l.Len(), Span: e.shape.span(), Mu: e.shape.mu(),
		Outcomes: make(map[int]Outcome, l.Len()),
	}
	if so, ok := cfg.observer.(SelectObserver); ok {
		e.selObs = so
		e.probe = &fitProbe{}
	}
	if fo, ok := cfg.observer.(FailureObserver); ok {
		e.fObs = fo
	}
	if do, ok := cfg.observer.(DepartureObserver); ok {
		e.dObs = do
	}
	if mo, ok := cfg.observer.(MigrationObserver); ok {
		e.mObs = mo
	}
	if cfg.migrate != nil {
		e.migPass = 1
	}
	if !cfg.linearSelect {
		switch fp := p.(type) {
		case IndexedPolicy:
			if fp.indexedAt(l.Dim) {
				e.ixKey = fp.indexKey
				e.ixFrom = cmp.Or(cfg.indexPeak, indexMinPeak)
			}
		case totalsPolicy:
			e.tp = fp
			e.totals = make([]vector.Acc, l.Dim)
			e.tot = vector.New(l.Dim)
		}
	}
	return e
}

// totalsPolicy is implemented by policies whose Select reads the exact
// per-dimension load totals of the open bins (AdaptiveHybrid's regime
// switch). On the engine path the engine supplies the totals it holds, so a
// decision costs one scan instead of a re-sum plus a scan.
type totalsPolicy interface {
	selectWithTotals(req Request, open []*Bin, tot vector.Vector) *Bin
}

// totalsSub removes b's current load from the held totals; totalsAdd folds
// it back in. Both are no-ops unless the engine holds totals. Every change to
// an open bin's load is bracketed by the pair, and closing a bin removes what
// is left of its load, so the totals always equal a fresh vector.Acc sum over
// the open bins. Acc is exact and order-independent, so no mutation history
// can make them drift.
func (e *Engine) totalsSub(b *Bin) {
	for j := range e.totals {
		e.totals[j].Sub(b.load[j])
	}
}

func (e *Engine) totalsAdd(b *Bin) {
	for j := range e.totals {
		e.totals[j].Add(b.load[j])
	}
}

// indexMinPeak is T, the size rule of DESIGN.md §11: the engine builds an
// IndexedPolicy's bin index at the first dispatch after the run's peak
// open-bin count (Result.MaxConcurrentBins) has reached it, and scans
// before. Below it the index's upkeep on every event costs more than its
// descent saves; BenchmarkIndexCrossover measures the crossover.
const indexMinPeak = 256

// buildIndex builds the bin index over the open bins, when the policy takes
// it and the run's peak has reached ixFrom and it is not built yet. The
// peak never falls, so the index is built once and kept. A snapshot carries
// the peak, so a restored run builds its index at the same dispatch as the
// uninterrupted run, and the treap's canonical shape makes the two indexes
// identical. dispatch calls it after compact, so open holds no tombstones.
func (e *Engine) buildIndex() {
	if e.idx != nil || e.ixKey == nil || e.res.MaxConcurrentBins < e.ixFrom {
		return
	}
	e.idx = binindex.New[*Bin](e.list.Dim)
	for _, b := range e.open {
		e.idxPut(b, true)
	}
}

// idxPut mirrors a just-packed, departed-from or migration-touched bin into
// the index: inserted when fresh, re-keyed otherwise.
func (e *Engine) idxPut(b *Bin, fresh bool) {
	if e.idx == nil {
		return
	}
	kf, ks := e.ixKey(b)
	if fresh {
		e.idx.Insert(kf, ks, b.ID, b.load, b)
	} else {
		e.idx.Update(b.ID, kf, ks, b.load)
	}
}

// auditOpenSet re-validates the fast paths' mirrors of the open set after a
// mutation (audit mode only): the index's structural invariants, and the
// held totals against a fresh exact sum over the open bins.
func (e *Engine) auditOpenSet() error {
	if e.cfg.audit == nil {
		return nil
	}
	if e.idx != nil {
		if err := e.idx.Validate(); err != nil {
			return err
		}
	}
	if e.totals == nil {
		return nil
	}
	// The reference is the fresh sum AdaptiveHybrid's own Select computes.
	want := new(AdaptiveHybrid).totals(len(e.totals), e.AppendOpenBins(nil))
	for j, w := range want {
		if got := e.totals[j].Round(); got != w {
			return fmt.Errorf("core: held open-load total in dimension %d is %v, a fresh sum over the open bins gives %v", j, got, w)
		}
	}
	return nil
}

// Close releases the policy-reuse guard. It is idempotent and implied by
// Finish; only abandoned runs need an explicit Close.
func (e *Engine) Close() {
	if !e.released {
		e.released = true
		releasePolicy(e.p)
	}
}

// EventSeq returns the number of events committed so far.
func (e *Engine) EventSeq() int64 { return e.eventSeq }

// AppendOpenBins appends the currently open bins to dst in ascending ID
// order and returns the extended slice. The bins are the engine's own — the
// caller must treat them as read-only, the same contract policies and
// planners operate under. Status endpoints and the fragmentation recompute
// (metrics.FragOf) read the open set through this accessor.
func (e *Engine) AppendOpenBins(dst []*Bin) []*Bin {
	for _, b := range e.open {
		if b != nil {
			dst = append(dst, b)
		}
	}
	return dst
}

// AppendPlacements appends the committed placements from index from on to
// dst, clamping from into [0, total], and returns the extended slice and the
// total committed so far. It copies only the suffix, so a listing costs
// O(answer) where Snapshot would deep-copy the whole run.
func (e *Engine) AppendPlacements(dst []Placement, from int) ([]Placement, int) {
	all := e.res.Placements
	from = min(max(from, 0), len(all))
	return append(dst, all[from:]...), len(all)
}

// Policy returns the policy driving the run.
func (e *Engine) Policy() Policy { return e.p }

// makeReq shapes the Request a policy sees for a dispatch of it at now.
func (e *Engine) makeReq(it item.Item, now float64, attempt int) Request {
	req := Request{ID: it.ID, SeqNo: it.SeqNo, Arrival: now, Size: it.Size, Attempt: attempt}
	if e.cfg.clairvoyant {
		req.Departure = it.Departure
		req.HasDeparture = true
	}
	return req
}

// closeBinAt closes b at time t; departures, crashes and migration drains
// all close through it. Closing only tombstones the bin's slot — O(1), so a
// burst of closings between two arrivals costs O(burst) instead of the
// O(burst·open) repeated splicing would. The slice is compacted (order
// preserved) before the next dispatch consults the policy.
//
// Once the policy and the observer have seen the close, the bin's
// accumulators go, zeroed, onto the spare list the next bin to open takes
// from, and so does its item map when the bin closed empty. A crashed bin
// keeps its map, because BinCrashed observers read it after the close. The
// load vector is never handed on: observers may read it later.
func (e *Engine) closeBinAt(b *Bin, t float64, crashed bool) {
	e.res.Bins = append(e.res.Bins, BinUsage{BinID: b.ID, OpenedAt: b.OpenedAt, ClosedAt: t, Packed: b.PackedItems(), Crashed: crashed})
	e.res.Cost += t - b.OpenedAt
	e.open[b.openIdx] = nil
	e.holes++
	delete(e.binsByID, b.ID)
	if e.idx != nil {
		e.idx.Remove(b.ID)
	}
	e.totalsSub(b)
	e.p.OnClose(b)
	if e.cfg.observer != nil {
		e.cfg.observer.BinClosed(b, t)
	}
	for j := range b.acc {
		b.acc[j].Reset()
	}
	e.spareAcc = append(e.spareAcc, b.acc)
	b.acc = nil
	if !crashed {
		e.spareActive = append(e.spareActive, b.active)
		b.active = nil
	}
}

// popSpare takes the most recently pushed entry off a spare list, or returns
// nil when the list is empty.
func popSpare[T any](list *[]T) (v T) {
	if n := len(*list); n > 0 {
		v = (*list)[n-1]
		*list = (*list)[:n-1]
	}
	return v
}

func (e *Engine) compact() {
	if e.holes == 0 {
		return
	}
	live := e.open[:0]
	for _, b := range e.open {
		if b != nil {
			b.openIdx = len(live)
			live = append(live, b)
		}
	}
	for i := len(live); i < len(e.open); i++ {
		e.open[i] = nil // release closed bins to the GC
	}
	e.open = live
	e.holes = 0
}

// dispatch runs one packing decision for it at time now. It returns
// placed=false when admission control turned the dispatch away (queued,
// rejected, or — for fromQueue dispatches — left in the queue). binID and
// opened describe the landed placement (binID is -1 when nothing was
// placed).
func (e *Engine) dispatch(it item.Item, attempt int, now float64, fromQueue bool) (placed bool, binID int, opened bool, err error) {
	e.compact()
	e.buildIndex()
	req := e.makeReq(it, now, attempt)
	if e.cfg.observer != nil {
		e.cfg.observer.BeforePack(req, e.open)
	}
	if e.probe != nil {
		e.probe.armed, e.probe.n = true, 0
	}
	var b *Bin
	switch {
	case e.idx != nil:
		e.idx.ResetChecks()
		b, _ = e.idx.FirstFeasible(req.Size)
	case e.tp != nil:
		for j := range e.totals {
			e.tot[j] = e.totals[j].Round()
		}
		b = e.tp.selectWithTotals(req, e.open, e.tot)
	default:
		b = e.p.Select(req, e.open)
	}
	if e.probe != nil {
		e.probe.armed = false
		n := e.probe.n
		if e.idx != nil {
			n += e.idx.Checks()
		}
		e.selObs.AfterSelect(req, b, n)
	}
	if e.cfg.audit != nil && (e.idx != nil || e.tp != nil) {
		// Per-decision oracle: the policy's own scan must agree with the
		// fast path.
		if want := e.p.Select(req, e.open); want != b {
			return false, -1, false, fmt.Errorf(
				"core: policy %s: fast-path select chose %s, linear scan chose %s (item %d)",
				e.p.Name(), binRef(b), binRef(want), it.ID)
		}
	}
	if b == nil {
		if e.cfg.maxBins > 0 && len(e.open)-e.holes >= e.cfg.maxBins {
			if fromQueue {
				return false, -1, false, nil // stays queued; caller keeps the entry
			}
			if e.cfg.queueWhenFull {
				e.waitq = append(e.waitq, queuedDispatch{it: it, attempt: attempt, queuedAt: now, deadline: now + e.cfg.queueDeadline})
				if e.fObs != nil {
					e.fObs.ItemQueued(req, now)
				}
			} else {
				e.res.Rejected++
				e.res.Outcomes[it.ID] = OutcomeRejected
				if e.fObs != nil {
					e.fObs.ItemRejected(req, now, false)
				}
			}
			return false, -1, false, nil
		}
		b = newBin(e.nextBinID, e.list.Dim, now, popSpare(&e.spareAcc), popSpare(&e.spareActive))
		b.openIdx = len(e.open)
		b.probe = e.probe
		e.nextBinID++
		e.open = append(e.open, b)
		e.binsByID[b.ID] = b
		opened = true
		if e.cfg.injector != nil {
			if at, ok := e.cfg.injector.BinOpened(b.ID, now); ok && !math.IsNaN(at) && at > now {
				e.crashes.PushAt(at, int64(b.ID), b.ID)
			}
		}
	} else if _, known := e.binsByID[b.ID]; !known {
		return false, -1, false, fmt.Errorf("core: policy %s returned closed or foreign bin %d", e.p.Name(), b.ID)
	}
	if e.cfg.audit != nil {
		// Record before packing so loads and fit flags reflect the state
		// the policy actually saw.
		e.cfg.audit.record(req, b, opened, e.open)
	}
	e.totalsSub(b) // a fresh bin's load is zero
	if err := b.pack(it.ID, it.Size); err != nil {
		return false, -1, false, fmt.Errorf("core: policy %s chose unfit bin: %w", e.p.Name(), err)
	}
	e.totalsAdd(b)
	if e.cfg.audit != nil {
		// Audit mode cross-checks the incremental load against the
		// original canonical recompute after every mutation.
		b.auditCrossCheckLoad()
	}
	e.p.OnPack(req, b, opened)
	e.idxPut(b, opened)
	if err := e.auditOpenSet(); err != nil {
		return false, -1, false, err
	}
	if e.cfg.observer != nil {
		e.cfg.observer.AfterPack(req, b, opened)
	}

	e.res.Placements = append(e.res.Placements, Placement{ItemID: it.ID, BinID: b.ID, Opened: opened, Time: now, Attempt: attempt})
	if attempt > 0 {
		e.res.Retries++
	}
	e.departures.PushAt(it.Departure, depSeq(it.ID, attempt), departure{itemID: it.ID, binID: b.ID})
	if live := len(e.open) - e.holes; live > e.res.MaxConcurrentBins {
		e.res.MaxConcurrentBins = live
	}
	return true, b.ID, opened, nil
}

// drainQueue gives every admission-queue entry one placement attempt at
// time t, in FIFO order, dropping expired entries along the way. A single
// pass suffices: capacity only shrinks while the pass places items.
func (e *Engine) drainQueue(t float64) error {
	if len(e.waitq) == 0 {
		return nil
	}
	kept := e.waitq[:0]
	for _, q := range e.waitq {
		if t > q.deadline || t >= q.it.Departure {
			e.res.TimedOut++
			e.res.Outcomes[q.it.ID] = OutcomeTimedOut
			if e.fObs != nil {
				e.fObs.ItemRejected(e.makeReq(q.it, t, q.attempt), t, true)
			}
			continue
		}
		placed, _, _, err := e.dispatch(q.it, q.attempt, t, true)
		if err != nil {
			return err
		}
		if placed {
			e.res.QueuedPlaced++
			e.res.QueueDelay += t - q.queuedAt
			if e.fObs != nil {
				e.fObs.ItemDequeued(e.makeReq(q.it, t, q.attempt), q.queuedAt, t)
			}
			continue
		}
		kept = append(kept, q)
	}
	// Zero the tail so dropped entries don't pin memory.
	tail := e.waitq[len(kept):]
	for i := range tail {
		tail[i] = queuedDispatch{}
	}
	e.waitq = kept
	return nil
}

// handleDeparture processes one departure event. binID reports the bin the
// departure actually mutated (-1 when the event was stale: the bin crashed
// and the item was evicted before its departure fired).
func (e *Engine) handleDeparture(t float64, ev departure) (binID int, err error) {
	b, ok := e.binsByID[ev.binID]
	if !ok {
		if e.cfg.injector != nil {
			return -1, nil // stale: the bin crashed and the item was evicted
		}
		return -1, fmt.Errorf("core: departure from unknown bin %d", ev.binID)
	}
	e.totalsSub(b)
	if err := b.remove(ev.itemID); err != nil {
		return -1, fmt.Errorf("core: %w", err)
	}
	if e.cfg.audit != nil {
		b.auditCrossCheckLoad()
	}
	e.served++
	e.res.Outcomes[ev.itemID] = OutcomeServed
	if b.Empty() {
		e.closeBinAt(b, t, false)
	} else {
		e.totalsAdd(b)
		e.idxPut(b, false)
		if e.dObs != nil {
			e.dObs.ItemDeparted(ev.itemID, b, t)
		}
	}
	if err := e.auditOpenSet(); err != nil {
		return -1, err
	}
	return ev.binID, e.drainQueue(t)
}

func (e *Engine) handleCrash(t float64, binID int) error {
	b, ok := e.binsByID[binID]
	if !ok {
		return nil // the bin closed naturally before its crash fired
	}
	// Ascending ID: deterministic eviction order. The scratch slice is
	// reused across crashes so eviction handling does not allocate once
	// it has grown to the largest eviction burst.
	e.evictIDs = b.appendActiveItemIDs(e.evictIDs[:0])
	evicted := e.evictIDs
	e.res.Crashes++
	e.closeBinAt(b, t, true)
	if err := e.auditOpenSet(); err != nil {
		return err
	}
	if e.fObs != nil {
		e.fObs.BinCrashed(b, t, len(evicted))
	}
	if e.attempts == nil {
		e.attempts = make(map[int]int)
	}
	for _, id := range evicted {
		it, _ := e.item(id)
		e.attempts[id]++
		attempt := e.attempts[id]
		e.res.Evictions++
		req := e.makeReq(it, t, attempt)
		delay := e.cfg.retry.Delay(attempt)
		if !(delay > 0) { // also normalises NaN and negative delays
			delay = 0
		}
		retryAt := t + delay
		if retryAt < it.Departure {
			e.res.LostUsageTime += retryAt - t
			e.retrySeq++
			e.retries.PushAt(retryAt, e.retrySeq, retryDispatch{it: it, attempt: attempt})
			if e.fObs != nil {
				e.fObs.ItemEvicted(req, b, t, retryAt)
			}
		} else {
			e.res.ItemsLost++
			e.res.LostUsageTime += it.Departure - t
			e.res.Outcomes[id] = OutcomeLost
			if e.fObs != nil {
				e.fObs.ItemEvicted(req, b, t, it.Departure)
				e.fObs.ItemLost(req, t)
			}
		}
	}
	return e.drainQueue(t)
}

// Step commits the earliest pending event across the four sources, breaking
// time ties by event class (departure < crash < re-dispatch < arrival) and,
// within a class, by each queue's own deterministic sequence. It returns the
// committed event's record; ok=false means no events remain (call Finish).
// An error poisons the engine: every later Step and Finish returns it.
func (e *Engine) Step() (rec EventRecord, ok bool, err error) {
	if e.err != nil {
		return EventRecord{}, false, e.err
	}
	if e.finished {
		return EventRecord{}, false, nil
	}
	if len(e.pendingMoves) > 0 {
		return e.stepMove()
	}
	t, class := math.Inf(1), evNone
	if ev, ok := e.departures.Peek(); ok {
		t, class = ev.Time, evDeparture
	}
	if ev, ok := e.crashes.Peek(); ok && (ev.Time < t || (ev.Time == t && evCrash < class)) {
		t, class = ev.Time, evCrash
	}
	if ev, ok := e.retries.Peek(); ok && (ev.Time < t || (ev.Time == t && evRetry < class)) {
		t, class = ev.Time, evRetry
	}
	if e.ai < len(e.arrivals) {
		if a := e.list.Items[e.arrivals[e.ai]].Arrival; a < t || (a == t && evArrival < class) {
			t, class = a, evArrival
		}
	}
	if class == evNone {
		return EventRecord{}, false, nil
	}
	// Consolidation passes due strictly before the next real event run now;
	// a pass scheduled exactly at t waits its turn behind t's events (the
	// same-instant class order — migration is last). Passes only fire while
	// real events remain, so migration never extends the run.
	if e.cfg.migrate != nil && e.migPassTime(e.migPass) < t {
		if err := e.maybePlanMigration(t); err != nil {
			e.err = err
			return EventRecord{}, false, err
		}
		if len(e.pendingMoves) > 0 {
			return e.stepMove()
		}
	}
	e.eventSeq++
	rec = EventRecord{Seq: e.eventSeq, Class: EventClass(class), Time: t, ItemID: -1, BinID: -1}
	switch class {
	case evDeparture:
		ev, _ := e.departures.Pop()
		if len(e.redirects) > 0 {
			// A migrated item's live entry still names its old bin; rewrite
			// and consume the redirect (stale entries from earlier
			// placements carry different attempt bits, so only the live
			// entry matches).
			if nb, hit := e.redirects[ev.Seq]; hit {
				delete(e.redirects, ev.Seq)
				ev.Payload.binID = nb
			}
		}
		rec.ItemID = ev.Payload.itemID
		rec.BinID, err = e.handleDeparture(ev.Time, ev.Payload)
	case evCrash:
		ev, _ := e.crashes.Pop()
		rec.BinID = ev.Payload
		err = e.handleCrash(ev.Time, ev.Payload)
	case evRetry:
		ev, _ := e.retries.Pop()
		rec.ItemID = ev.Payload.it.ID
		rec.Placed, rec.BinID, rec.Opened, err = e.dispatch(ev.Payload.it, ev.Payload.attempt, ev.Time, false)
	case evArrival:
		it := e.list.Items[e.arrivals[e.ai]]
		e.ai++
		rec.ItemID = it.ID
		rec.Placed, rec.BinID, rec.Opened, err = e.dispatch(it, 0, it.Arrival, false)
	}
	if err != nil {
		e.err = err
		return EventRecord{}, false, err
	}
	e.lastTime = t
	return rec, true, nil
}

// Finish seals the run: it sweeps expired admission-queue entries, verifies
// the engine's internal conservation invariants, releases the policy, and
// returns the Result. Finishing with events still pending is an error (run
// Step until it reports ok=false first).
func (e *Engine) Finish() (*Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.finished {
		return e.res, nil
	}
	fail := func(err error) (*Result, error) {
		e.err = err
		e.Close()
		return nil, err
	}
	if _, ok, _ := e.Step(); ok {
		return fail(fmt.Errorf("core: Finish called with events still pending"))
	}

	// Defensive sweep: the final bin close drains the queue with the whole
	// fleet free, so entries can remain only if they were already expired.
	for _, q := range e.waitq {
		e.res.TimedOut++
		e.res.Outcomes[q.it.ID] = OutcomeTimedOut
		if e.fObs != nil {
			t := math.Min(q.deadline, q.it.Departure)
			e.fObs.ItemRejected(e.makeReq(q.it, t, q.attempt), t, true)
		}
	}
	e.waitq = nil

	if len(e.open)-e.holes != 0 {
		return fail(fmt.Errorf("core: internal error: %d bins left open after drain", len(e.open)-e.holes))
	}
	if e.served+e.res.ItemsLost+e.res.Rejected+e.res.TimedOut != e.list.Len() {
		return fail(fmt.Errorf("core: internal error: item conservation violated (%d served, %d lost, %d rejected, %d timed out of %d)",
			e.served, e.res.ItemsLost, e.res.Rejected, e.res.TimedOut, e.list.Len()))
	}

	if e.cfg.dynamic {
		// A dynamic run's instance-shape summary is only known once the
		// stream ends; read it off the fold AppendArrival kept, which equals
		// a static run's over the same final list bit for bit.
		e.res.Span = e.shape.span()
		e.res.Mu = e.shape.mu()
		e.res.Items = e.list.Len()
	}
	e.res.BinsOpened = e.nextBinID
	e.res.sortBins()
	e.finished = true
	e.Close()
	return e.res, nil
}

// Simulate runs the Any Fit skeleton (Algorithm 1) over the item list with
// the given policy and returns the resulting packing and its MinUsageTime
// cost. The list is validated first; the input is not modified. The engine
// reads the list in place while it runs, so the caller must not mutate it
// until Simulate returns.
//
// Event order: items are processed by (arrival, SeqNo). Because active
// intervals are half-open, departures at time t are processed before
// arrivals at time t — an item departing at t has freed its capacity for an
// item arriving at t. (The paper's Theorem 5 construction has new items
// arrive "just before" old ones depart; such instances encode the arrival at
// time t - ε or rely on same-time arrival ordering, both of which this
// engine preserves.) With fault injection, same-instant events run
// departures, then crashes, then re-dispatches of evicted items, then
// arrivals; the admission queue is drained after every capacity-freeing
// event, ahead of same-instant dispatches.
func Simulate(l *item.List, p Policy, opts ...Option) (*Result, error) {
	e, err := NewEngine(l, p, opts...)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	for {
		_, ok, err := e.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	return e.Finish()
}
