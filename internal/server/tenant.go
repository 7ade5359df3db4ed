package server

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/metrics"
	"dvbp/internal/persist"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
)

// TenantConfig is one tenant's identity: the part that goes into the
// manifest and must survive restarts.
type TenantConfig struct {
	// Name identifies the tenant; it is also its directory name under the
	// store root.
	Name string `json:"name"`
	// Dim is the resource dimension of the tenant's items.
	Dim int `json:"dim"`
	// Policy is the Any Fit policy, in any spelling core.NewPolicy accepts.
	Policy string `json:"policy"`
	// Seed seeds the policy (RandomFit; ignored by the others).
	Seed int64 `json:"seed"`
	// CheckpointEvery takes an automatic snapshot after this many engine
	// events; 0 disables snapshots (recovery replays the whole WAL).
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
}

// Limits bounds every tenant's admission front end. The zero value selects
// the defaults below.
type Limits struct {
	// QueueDepth caps the per-tenant request queue; a full queue answers 429.
	QueueDepth int
	// BatchMax caps how many queued requests one group commit covers.
	BatchMax int
	// Deadline is the per-request time budget measured from enqueue; a
	// request still queued past it answers 503. 0 means no deadline.
	Deadline time.Duration
	// SyncEvery batches persist-layer fsyncs between the explicit barriers.
	SyncEvery int
	// RetryAttempts is how many times a transient I/O failure (EIO) is
	// retried at a commit barrier before the tenant degrades; disk-full
	// errors skip the retries (waiting microseconds for space is pointless).
	// Negative disables retrying.
	RetryAttempts int
	// RetryBackoff is the sleep before the first retry; it doubles per
	// attempt, capped at 100ms.
	RetryBackoff time.Duration
	// FS is the filesystem seam the store and every tenant run their file
	// operations through; nil means the real filesystem. Tests inject
	// vfs.Mem or a vfs.Injector here.
	FS vfs.FS
}

func (l Limits) withDefaults() Limits {
	if l.QueueDepth <= 0 {
		l.QueueDepth = 256
	}
	if l.BatchMax <= 0 {
		l.BatchMax = 64
	}
	if l.SyncEvery <= 0 {
		l.SyncEvery = 64
	}
	if l.RetryAttempts == 0 {
		l.RetryAttempts = 3
	}
	if l.RetryBackoff <= 0 {
		l.RetryBackoff = 2 * time.Millisecond
	}
	return l
}

// maxRetryBackoff caps the exponential retry sleep.
const maxRetryBackoff = 100 * time.Millisecond

// apiError is an error with an HTTP status, rendered as the structured JSON
// error body.
type apiError struct {
	Status int
	Code   string
	Msg    string
}

func (e *apiError) Error() string { return e.Msg }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Sentinel API errors the front end maps to backpressure statuses.
var (
	errBusy     = &apiError{Status: http.StatusTooManyRequests, Code: "queue_full", Msg: "tenant queue is full, retry later"}
	errDraining = &apiError{Status: http.StatusServiceUnavailable, Code: "draining", Msg: "server is draining, not accepting work"}
	errDeadline = &apiError{Status: http.StatusServiceUnavailable, Code: "deadline", Msg: "request deadline expired before processing"}
)

type reqKind uint8

const (
	reqPlace reqKind = iota
	reqAdvance
	reqStats
	reqPlacements
)

// request is one unit of work on a tenant's queue.
type request struct {
	kind     reqKind
	deadline time.Time // zero = none

	// place
	arrival     float64
	arrivalSet  bool
	departure   float64
	duration    float64
	durationSet bool
	size        vector.Vector

	// advance
	to float64

	// placements
	from int

	reply chan response
}

type response struct {
	err        *apiError
	place      *PlaceResult
	advance    *AdvanceResult
	stats      *TenantStatus
	placements *PlacementsResult
}

// PlaceResult acknowledges one placement. By the time a client reads it, the
// item's admission is in the fsynced op log and its placement event in the
// fsynced WAL.
type PlaceResult struct {
	Tenant string  `json:"tenant"`
	Item   int     `json:"item"`
	Bin    int     `json:"bin"`
	Opened bool    `json:"opened"`
	Time   float64 `json:"time"`
}

// AdvanceResult acknowledges a clock advance.
type AdvanceResult struct {
	Tenant string  `json:"tenant"`
	To     float64 `json:"to"`
	Events int     `json:"events"`
	Served int     `json:"served"`
}

// TenantStatus is the stats view of one tenant: its identity, the engine's
// counters, and derived cost/fragmentation figures.
type TenantStatus struct {
	TenantConfig
	Watermark float64 `json:"watermark"`
	// Degraded is true while the tenant is read-only because its disk is
	// refusing writes (ENOSPC or persistent EIO); mutations answer 503 and
	// the worker probes for recovery at every batch.
	Degraded bool `json:"degraded,omitempty"`
	// Engine counters (see core.EngineStats).
	EventSeq   int64   `json:"event_seq"`
	Clock      float64 `json:"clock"`
	Items      int     `json:"items"`
	Served     int     `json:"served"`
	Placements int     `json:"placements"`
	OpenBins   int     `json:"open_bins"`
	BinsOpened int     `json:"bins_opened"`
	// Cost is the usage-time objective accrued through the watermark.
	Cost float64 `json:"cost"`
	// OpenLoad is the per-dimension total load across open bins.
	OpenLoad []float64 `json:"open_load"`
	// StrandedPerDim is the per-dimension stranded open capacity: free
	// capacity in dimension d that cannot be used because some other
	// dimension has less headroom, summed over open bins (core.EngineStats
	// Stranded; DESIGN.md §13). StrandedCapacity is its dimension sum.
	StrandedPerDim   []float64 `json:"stranded_per_dim"`
	StrandedCapacity float64   `json:"stranded_capacity"`
}

// PlacementRecord is one acknowledged placement in a placements listing.
type PlacementRecord struct {
	Item int     `json:"item"`
	Bin  int     `json:"bin"`
	Time float64 `json:"time"`
}

// PlacementsResult lists a tenant's committed placements from index From.
type PlacementsResult struct {
	Tenant     string            `json:"tenant"`
	From       int               `json:"from"`
	Total      int               `json:"total"`
	Placements []PlacementRecord `json:"placements"`
}

// Tenant is one independent run behind the server: a dynamic engine, its
// persistence session, its op log, and the single worker goroutine that owns
// all three. Everything mutable belongs to the worker; the front end only
// enqueues.
type Tenant struct {
	cfg    TenantConfig
	limits Limits
	dir    string
	fs     vfs.FS
	m      *storeMetrics

	// degradedFlag mirrors the worker-owned degraded state for readers on
	// other goroutines (/readyz); the worker is the only writer.
	degradedFlag atomic.Bool

	mu     sync.Mutex
	closed bool
	ch     chan *request

	// Worker-owned state below; untouched outside the worker goroutine
	// after start().
	session   *persist.Session
	ops       *persist.Writer
	watermark float64
	failed    *apiError
	degraded  *apiError // non-nil while the tenant is read-only on a sick disk

	done chan struct{}
}

func newTenant(cfg TenantConfig, dir string, limits Limits, m *storeMetrics) *Tenant {
	return &Tenant{
		cfg:    cfg,
		limits: limits,
		dir:    dir,
		fs:     vfs.OrOS(limits.FS),
		m:      m,
		ch:     make(chan *request, limits.QueueDepth),
		done:   make(chan struct{}),
	}
}

// Config returns the tenant's manifest identity.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// start launches the worker goroutine over an opened session + op log.
func (t *Tenant) start(session *persist.Session, ops *persist.Writer, watermark float64) {
	t.session = session
	t.ops = ops
	t.watermark = watermark
	go t.run()
}

// enqueue hands one request to the worker, answering errBusy when the
// bounded queue is full and errDraining when the tenant is shutting down.
// On success the worker owns the request and will send exactly one response
// on req.reply.
func (t *Tenant) enqueue(req *request) *apiError {
	if t.limits.Deadline > 0 {
		req.deadline = time.Now().Add(t.limits.Deadline)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errDraining
	}
	select {
	case t.ch <- req:
		t.m.queueDepth.Add(1)
		return nil
	default:
		t.m.backpressure.Inc()
		return errBusy
	}
}

// close stops intake and waits for the worker to drain the queue, sync, and
// release the files. Safe to call more than once.
func (t *Tenant) close() {
	t.mu.Lock()
	already := t.closed
	t.closed = true
	if !already {
		close(t.ch)
	}
	t.mu.Unlock()
	<-t.done
}

// run is the worker loop: drain up to BatchMax queued requests, process them
// as one group commit, repeat until intake closes, then release everything.
func (t *Tenant) run() {
	defer close(t.done)
	for req := range t.ch {
		batch := []*request{req}
	fill:
		for len(batch) < t.limits.BatchMax {
			select {
			case r, ok := <-t.ch:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		t.m.queueDepth.Add(-float64(len(batch)))
		t.m.batchSize.Observe(float64(len(batch)))
		t.process(batch)
	}
	// Intake closed: the range loop above already drained everything, so
	// only the files remain. Close syncs the WAL; the op log syncs on Close
	// too, so nothing acknowledged — or even admitted — is lost.
	if t.session != nil {
		t.session.Close()
	}
	if t.ops != nil {
		t.ops.Close()
	}
}

// process runs one batch as a group commit, honouring the two-barrier
// durability order: validate and append every mutation's op, fsync the op
// log, apply the mutations to the engine (appending WAL records), fsync the
// WAL, then acknowledge. Transient barrier failures retry with capped
// backoff; a disk that stays sick degrades the tenant to read-only (503 for
// mutations, queries still served) instead of poisoning it — the worker
// probes the disk at every batch and resumes when writes go through again.
func (t *Tenant) process(batch []*request) {
	if t.degraded != nil {
		t.probe()
	}
	now := time.Now()
	type staged struct {
		req  *request
		resp response
	}
	out := make([]staged, 0, len(batch))
	var mutations []int // indices in out, in batch order
	wm0 := t.watermark  // admission rolls back here if barrier 1 fails

	// Phase 1: admission. Validate each mutation against the running
	// watermark and append its op-log record (buffered, not yet synced).
	for _, req := range batch {
		if t.failed != nil {
			out = append(out, staged{req, response{err: t.failed}})
			continue
		}
		if !req.deadline.IsZero() && now.After(req.deadline) {
			t.m.deadlines.Inc()
			out = append(out, staged{req, response{err: errDeadline}})
			continue
		}
		switch req.kind {
		case reqPlace, reqAdvance:
			if t.degraded != nil {
				out = append(out, staged{req, response{err: t.degraded}})
				continue
			}
			var aerr *apiError
			if req.kind == reqPlace {
				if !req.arrivalSet {
					req.arrival = t.watermark
				}
				aerr = t.admitPlace(req)
			} else {
				aerr = t.admitAdvance(req)
			}
			if aerr != nil {
				out = append(out, staged{req, response{err: aerr}})
				continue
			}
			mutations = append(mutations, len(out))
			out = append(out, staged{req, response{}})
		default:
			out = append(out, staged{req, response{}})
		}
	}

	// refuse answers every still-pending mutation with the tenant's current
	// terminal error (failed beats degraded).
	refuse := func() {
		for _, i := range mutations {
			if out[i].resp.err == nil {
				if t.failed != nil {
					out[i].resp.err = t.failed
				} else {
					out[i].resp.err = t.degraded
				}
			}
		}
		mutations = nil
	}

	// Phase 2: first barrier — ops durable before the engine may step. On a
	// recoverable failure the whole batch rolls back (the op-log writer is
	// manual-sync, so nothing leaked) and the tenant degrades; only
	// corruption, or a rollback that itself fails, poisons it.
	if len(mutations) > 0 && t.failed == nil {
		if err := t.retryIO(t.ops.Sync); err != nil {
			if persist.Recoverable(err) {
				if rberr := t.ops.Rollback(); rberr != nil {
					t.fail("op log rollback after failed sync: %v", rberr)
				} else {
					t.watermark = wm0
					t.degrade(err)
				}
			} else {
				t.fail("op log sync: %v", err)
			}
			refuse()
		}
	}

	// Phase 3: apply, in batch order. Queries run here too — degraded mode
	// keeps serving them — and each sees exactly the batch mutations that
	// preceded it.
	for i := range out {
		s := &out[i]
		if s.resp.err != nil {
			continue
		}
		if t.failed != nil {
			s.resp.err = t.failed
			continue
		}
		switch s.req.kind {
		case reqPlace:
			s.resp.place = t.applyPlace(s.req)
		case reqAdvance:
			s.resp.advance = t.applyAdvance(s.req)
		case reqStats:
			s.resp.stats = t.status()
		case reqPlacements:
			s.resp.placements = t.listPlacements(s.req.from)
		}
		if t.failed != nil && s.resp.err == nil {
			s.resp.err = t.failed
		}
	}

	// Phase 4: second barrier — the WAL durable before anyone is told. The
	// engine already stepped these events, so on a recoverable failure they
	// stay applied (item IDs are positional; un-stepping would skew them
	// against the durable op log) but unacknowledged: the records sit in the
	// writer's buffer, the probe re-syncs them, and recovery after a crash
	// regenerates them from the op log. The clients got 503, not an ack, so
	// nothing acknowledged can be lost either way.
	if len(mutations) > 0 && t.failed == nil {
		if err := t.retryIO(t.session.Sync); err != nil {
			if persist.Recoverable(err) {
				t.degrade(err)
			} else {
				t.fail("wal sync: %v", err)
			}
			refuse()
		}
	}

	// Phase 5: acknowledge.
	for _, s := range out {
		s.req.reply <- s.resp
	}

	t.harvest()
}

// retryIO runs op, retrying transient failures with exponential backoff
// (capped) up to Limits.RetryAttempts times. Disk-full, corruption, and
// fatal errors return immediately: waiting will not create space or truth.
func (t *Tenant) retryIO(op func() error) error {
	backoff := t.limits.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || persist.Classify(err) != persist.ClassTransient || attempt >= t.limits.RetryAttempts {
			return err
		}
		t.m.ioRetries.Inc()
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// degrade flips the tenant into read-only mode: mutations answer 503 until a
// probe sees the disk take writes again. Unlike fail, nothing is poisoned —
// on-disk state is honest (behind, never wrong).
func (t *Tenant) degrade(cause error) {
	if t.degraded != nil {
		return
	}
	t.degraded = errf(http.StatusServiceUnavailable, "degraded",
		"tenant %q is read-only, disk unwell (%s): %v", t.cfg.Name, persist.Classify(cause), cause)
	t.degradedFlag.Store(true)
	t.m.degraded.Add(1)
}

// resume lifts degraded mode after a successful probe.
func (t *Tenant) resume() {
	if t.degraded == nil {
		return
	}
	t.degraded = nil
	t.degradedFlag.Store(false)
	t.m.degraded.Add(-1)
}

// probe re-runs both durability barriers against whatever is buffered (after
// a barrier-2 failure that includes the unacknowledged WAL suffix). Both
// clean means the disk recovered; a recoverable failure keeps degraded mode;
// corruption or fatal errors poison.
func (t *Tenant) probe() {
	if err := t.ops.Sync(); err != nil {
		if !persist.Recoverable(err) {
			t.fail("op log sync: %v", err)
		}
		return
	}
	if err := t.session.Sync(); err != nil {
		if !persist.Recoverable(err) {
			t.fail("wal sync: %v", err)
		}
		return
	}
	t.resume()
}

// harvest drains the session's I/O counters into the server metrics after a
// batch, and piggybacks op-log compaction on a just-finished WAL compaction:
// the session compacts its own WAL and snapshots, but only the tenant knows
// the op log, so the two shrink in tandem here.
func (t *Tenant) harvest() {
	st := t.session.TakeIOStats()
	if n := st.SyncFailures + st.CheckpointsSkipped; n > 0 {
		t.m.ioRetries.Add(uint64(n))
	}
	if st.Compactions > 0 {
		t.m.compactions.Add(uint64(st.Compactions))
		t.m.reclaimed.Add(uint64(st.ReclaimedBytes))
		if t.failed == nil && t.degraded == nil && !t.ops.Buffered() {
			t.compactOps()
		}
	}
}

// compactOps rewrites the op log with its advance spam collapsed, swapping
// the worker's writer for one on the rewritten file. Recoverable failures
// skip (the next compaction window retries); only corruption or a lost
// handle poisons.
func (t *Tenant) compactOps() {
	w, reclaimed, err := persist.CompactOpLog(t.fs, filepath.Join(t.dir, opsFile), t.cfg.Name, persist.SyncManual)
	if err != nil {
		if !persist.Recoverable(err) {
			t.fail("op log compaction: %v", err)
		}
		return
	}
	if w == nil {
		return
	}
	t.ops.Discard()
	t.ops = w
	t.m.compactions.Inc()
	t.m.reclaimed.Add(uint64(reclaimed))
}

// fail poisons the tenant: a persistence write failed, so no further
// acknowledgement would be honest. Queued and future requests answer 500.
func (t *Tenant) fail(format string, args ...any) {
	if t.failed == nil {
		t.failed = errf(http.StatusInternalServerError, "tenant_failed",
			"tenant %q persistence failed: %s", t.cfg.Name, fmt.Sprintf(format, args...))
		t.m.tenantFailures.Inc()
	}
}

// admitPlace validates a place request against the watermark and logs it.
func (t *Tenant) admitPlace(req *request) *apiError {
	if req.durationSet {
		req.departure = req.arrival + req.duration
	}
	if req.arrival < t.watermark {
		return errf(http.StatusConflict, "stale_arrival",
			"arrival %g is behind tenant %q watermark %g", req.arrival, t.cfg.Name, t.watermark)
	}
	probe := item.Item{Arrival: req.arrival, Departure: req.departure, Size: req.size}
	if err := probe.Validate(t.cfg.Dim); err != nil {
		return errf(http.StatusBadRequest, "invalid_item", "%v", err)
	}
	if err := t.ops.Append(persist.AppendItemOp(nil, req.arrival, req.departure, req.size)); err != nil {
		t.fail("op log append: %v", err)
		return t.failed
	}
	t.watermark = req.arrival
	return nil
}

// admitAdvance validates an advance request against the watermark and logs it.
func (t *Tenant) admitAdvance(req *request) *apiError {
	if req.to < t.watermark {
		return errf(http.StatusConflict, "stale_advance",
			"advance to %g is behind tenant %q watermark %g", req.to, t.cfg.Name, t.watermark)
	}
	if err := t.ops.Append(persist.AppendAdvanceOp(nil, req.to)); err != nil {
		t.fail("op log append: %v", err)
		return t.failed
	}
	t.watermark = req.to
	return nil
}

// applyPlace admits the item into the engine and steps the session until the
// item's arrival event commits, returning the placement.
func (t *Tenant) applyPlace(req *request) *PlaceResult {
	e := t.session.Engine()
	id, err := e.AppendArrival(req.arrival, req.departure, req.size)
	if err != nil {
		// Cannot happen after admitPlace's checks; treat as fatal skew.
		t.fail("engine rejected an admitted item: %v", err)
		return nil
	}
	for {
		rec, ok, err := t.session.Step()
		if err != nil {
			t.fail("step: %v", err)
			return nil
		}
		if !ok {
			t.fail("stream drained before arrival of item %d committed", id)
			return nil
		}
		t.m.events.Inc()
		if rec.Class == core.EventArrival && rec.ItemID == id {
			t.m.items.Inc()
			return &PlaceResult{Tenant: t.cfg.Name, Item: id, Bin: rec.BinID, Opened: rec.Opened, Time: rec.Time}
		}
	}
}

// applyAdvance steps the session through every event due at or before the
// target time.
func (t *Tenant) applyAdvance(req *request) *AdvanceResult {
	e := t.session.Engine()
	n := 0
	for {
		tt, ok := e.PeekTime()
		if !ok || tt > req.to {
			break
		}
		if _, ok, err := t.session.Step(); err != nil {
			t.fail("step: %v", err)
			return nil
		} else if !ok {
			break
		}
		t.m.events.Inc()
		n++
	}
	return &AdvanceResult{Tenant: t.cfg.Name, To: req.to, Events: n, Served: e.Stats().Served}
}

// status builds the stats view (worker goroutine only). The fragmentation
// fields — open_load, stranded_per_dim and stranded_capacity — are all
// derived from one metrics.FragOf recompute over the engine's open bins, so
// they can never drift apart (or away from the fragmentation tracker's
// definition) under bin close/crash churn.
func (t *Tenant) status() *TenantStatus {
	e := t.session.Engine()
	st := e.Stats()
	fs := metrics.FragOf(t.cfg.Dim, e.AppendOpenBins(nil))
	out := &TenantStatus{
		TenantConfig: t.cfg,
		Watermark:    t.watermark,
		Degraded:     t.degraded != nil,
		EventSeq:     st.EventSeq,
		Clock:        st.Clock,
		Items:        st.Items,
		Served:       st.Served,
		Placements:   st.Placements,
		OpenBins:     fs.OpenBins,
		BinsOpened:   st.BinsOpened,
		Cost:         st.CostAt(t.watermark),
		OpenLoad:     fs.Load,
	}
	out.StrandedPerDim = fs.Stranded
	for _, v := range fs.Stranded {
		out.StrandedCapacity += v
	}
	return out
}

// listPlacements copies the committed placements from index from on
// (worker goroutine only).
func (t *Tenant) listPlacements(from int) *PlacementsResult {
	snap, err := t.session.Engine().Snapshot()
	if err != nil {
		t.fail("snapshot: %v", err)
		return nil
	}
	all := snap.Result.Placements
	if from < 0 {
		from = 0
	}
	if from > len(all) {
		from = len(all)
	}
	out := &PlacementsResult{Tenant: t.cfg.Name, From: from, Total: len(all)}
	for _, p := range all[from:] {
		out.Placements = append(out.Placements, PlacementRecord{Item: p.ItemID, Bin: p.BinID, Time: p.Time})
	}
	return out
}
