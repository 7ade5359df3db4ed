package metrics

import (
	"sync"
	"time"

	"dvbp/internal/core"
)

// Metric names recorded by Collector.
const (
	// MetricItemsPlaced counts successful placements; on a single run it
	// equals Result.Items.
	MetricItemsPlaced = "dvbp_items_placed_total"
	// MetricBinsOpened counts bins opened; on a single run it equals
	// Result.BinsOpened.
	MetricBinsOpened = "dvbp_bins_opened_total"
	// MetricBinsClosed counts bins whose last item departed.
	MetricBinsClosed = "dvbp_bins_closed_total"
	// MetricFitChecks counts feasibility evaluations performed inside
	// policy Select: on the scan path, one per bin the policy tested; on
	// the indexed path (Worst Fit, and Best Fit at d = 1, once a run's peak
	// reaches the engine's index threshold), the bin store's
	// per-entry fit checks plus subtree prune evaluations (O(1)
	// residual-bucket mask rejections evaluate no load vector and are not
	// counted). Engine-internal feasibility re-checks are excluded. See
	// DESIGN.md §11.
	MetricFitChecks = "dvbp_fit_checks_total"
	// MetricOpenBins gauges the currently open bin population.
	MetricOpenBins = "dvbp_open_bins"
	// MetricOpenBinsPeak gauges the open-bin high-water mark; on a single
	// run it equals Result.MaxConcurrentBins.
	MetricOpenBinsPeak = "dvbp_open_bins_peak"
	// MetricUsageTime gauges accrued bin usage time (simulated time units),
	// credited per bin as it closes; after a full run it equals Result.Cost.
	MetricUsageTime = "dvbp_usage_time_total"
	// MetricPlacementSeconds is a histogram of wall time per placement
	// (BeforePack to AfterPack).
	MetricPlacementSeconds = "dvbp_placement_seconds"
	// MetricFitChecksPerSelect is a histogram of fit checks per Select call.
	MetricFitChecksPerSelect = "dvbp_fit_checks_per_select"

	// Failure-path series, populated only when the engine runs with fault
	// injection or admission control (core.WithFaults / core.WithMaxBins).

	// MetricBinsCrashed counts bins forcibly closed by fault injection; on a
	// single run it equals Result.Crashes.
	MetricBinsCrashed = "dvbp_bins_crashed_total"
	// MetricItemsEvicted counts items displaced by crashes
	// (Result.Evictions).
	MetricItemsEvicted = "dvbp_items_evicted_total"
	// MetricItemsRetried counts successful re-placements of evicted items
	// (Result.Retries).
	MetricItemsRetried = "dvbp_items_retried_total"
	// MetricItemsLost counts evicted items that could not resume before
	// their departure (Result.ItemsLost).
	MetricItemsLost = "dvbp_items_lost_total"
	// MetricItemsRejected counts dispatches dropped at admission with no
	// queue (Result.Rejected).
	MetricItemsRejected = "dvbp_items_rejected_total"
	// MetricItemsTimedOut counts admission-queue entries that expired
	// (Result.TimedOut).
	MetricItemsTimedOut = "dvbp_items_timed_out_total"
	// MetricItemsQueued counts dispatches parked in the admission queue.
	MetricItemsQueued = "dvbp_items_queued_total"
	// MetricItemsDequeued counts queued dispatches that were eventually
	// placed (Result.QueuedPlaced).
	MetricItemsDequeued = "dvbp_items_dequeued_total"
	// MetricQueueDelay gauges total simulated time placed items spent
	// queued (Result.QueueDelay).
	MetricQueueDelay = "dvbp_queue_delay_total"
	// MetricItemsMigrated counts items relocated by consolidation passes
	// (DESIGN.md §14); on a single run it equals Result.Migrations.
	MetricItemsMigrated = "dvbp_items_migrated_total"
	// MetricMigrationCost gauges the accrued migration cost (moved L1 size ×
	// remaining duration); on a single run it equals Result.MigrationCost.
	MetricMigrationCost = "dvbp_migration_cost_total"
	// MetricBinsDrained counts bins closed because a migration move emptied
	// them; on a single run it equals Result.BinsDrained.
	MetricBinsDrained = "dvbp_bins_drained_total"
	// MetricLostUsage gauges total usage time lost to crashes
	// (Result.LostUsageTime).
	MetricLostUsage = "dvbp_lost_usage_time_total"
)

// DefaultPlacementBuckets are the placement-latency histogram bounds, in
// seconds. Placements are sub-microsecond for small open-bin populations, so
// the grid starts at 100ns.
var DefaultPlacementBuckets = []float64{
	100e-9, 250e-9, 500e-9, 1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 1e-2, 1e-1,
}

// DefaultFitCheckBuckets are the fit-checks-per-Select histogram bounds: a
// power-of-two grid because a Select scans at most the open-bin population.
var DefaultFitCheckBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// CollectorOption configures NewCollector.
type CollectorOption func(*Collector)

// WithClock substitutes the wall clock, e.g. with a *Manual in tests.
func WithClock(c Clock) CollectorOption {
	return func(col *Collector) { col.clock = c }
}

// Collector records per-run engine series into a Registry. It implements
// core.Observer and the optional core.SelectObserver extension; attach it
// with core.WithObserver. See the package documentation for the exact
// Result correspondences and for the semantics of sharing one Collector
// across concurrent simulations.
type Collector struct {
	clock Clock
	reg   *Registry

	itemsPlaced *Counter
	binsOpened  *Counter
	binsClosed  *Counter
	fitChecks   *Counter

	openBins     *Gauge
	openBinsPeak *Gauge
	usageTime    *Gauge

	placementSeconds   *Histogram
	fitChecksPerSelect *Histogram

	binsCrashed   *Counter
	itemsEvicted  *Counter
	itemsRetried  *Counter
	itemsLost     *Counter
	itemsRejected *Counter
	itemsTimedOut *Counter
	itemsQueued   *Counter
	itemsDequeued *Counter
	queueDelay    *Gauge
	lostUsage     *Gauge

	itemsMigrated *Counter
	binsDrained   *Counter
	migrationCost *Gauge

	mu     sync.Mutex
	starts map[placeKey]time.Duration
}

// placeKey pairs the item identifiers that make a placement unique within
// one run, for matching BeforePack to AfterPack.
type placeKey struct{ id, seq int }

var (
	_ core.Observer          = (*Collector)(nil)
	_ core.SelectObserver    = (*Collector)(nil)
	_ core.FailureObserver   = (*Collector)(nil)
	_ core.MigrationObserver = (*Collector)(nil)
)

// NewCollector returns a Collector with a fresh Registry and wall clock.
func NewCollector(opts ...CollectorOption) *Collector {
	c := &Collector{
		clock:  NewWallClock(),
		reg:    NewRegistry(),
		starts: make(map[placeKey]time.Duration),
	}
	for _, o := range opts {
		o(c)
	}
	c.itemsPlaced = c.reg.Counter(MetricItemsPlaced, "items placed by the engine")
	c.binsOpened = c.reg.Counter(MetricBinsOpened, "bins opened")
	c.binsClosed = c.reg.Counter(MetricBinsClosed, "bins closed (last item departed)")
	c.fitChecks = c.reg.Counter(MetricFitChecks, "feasibility evaluations inside policy Select")
	c.openBins = c.reg.Gauge(MetricOpenBins, "currently open bins")
	c.openBinsPeak = c.reg.Gauge(MetricOpenBinsPeak, "open-bin high-water mark")
	c.usageTime = c.reg.Gauge(MetricUsageTime, "accrued bin usage time (simulated units)")
	c.placementSeconds = c.reg.Histogram(MetricPlacementSeconds,
		"wall time per placement in seconds", DefaultPlacementBuckets...)
	c.fitChecksPerSelect = c.reg.Histogram(MetricFitChecksPerSelect,
		"fit checks per policy Select call", DefaultFitCheckBuckets...)
	c.binsCrashed = c.reg.Counter(MetricBinsCrashed, "bins forcibly closed by fault injection")
	c.itemsEvicted = c.reg.Counter(MetricItemsEvicted, "items evicted by bin crashes")
	c.itemsRetried = c.reg.Counter(MetricItemsRetried, "evicted items successfully re-placed")
	c.itemsLost = c.reg.Counter(MetricItemsLost, "evicted items lost (could not resume before departure)")
	c.itemsRejected = c.reg.Counter(MetricItemsRejected, "dispatches rejected at admission (fleet full, no queue)")
	c.itemsTimedOut = c.reg.Counter(MetricItemsTimedOut, "admission-queue entries expired")
	c.itemsQueued = c.reg.Counter(MetricItemsQueued, "dispatches parked in the admission queue")
	c.itemsDequeued = c.reg.Counter(MetricItemsDequeued, "queued dispatches eventually placed")
	c.queueDelay = c.reg.Gauge(MetricQueueDelay, "total simulated queue wait of placed items")
	c.lostUsage = c.reg.Gauge(MetricLostUsage, "total usage time lost to crashes (simulated units)")
	c.itemsMigrated = c.reg.Counter(MetricItemsMigrated, "items relocated by consolidation passes")
	c.binsDrained = c.reg.Counter(MetricBinsDrained, "bins closed by a draining migration move")
	c.migrationCost = c.reg.Gauge(MetricMigrationCost, "accrued migration cost (moved size × remaining duration)")
	return c
}

// ItemMigrated implements core.MigrationObserver: it counts the move and
// accrues its cost. The drained bin's close itself arrives through BinClosed
// like any other close, so usage time needs no special handling here.
func (c *Collector) ItemMigrated(itemID int, from, to *core.Bin, t, cost float64, drained bool) {
	c.itemsMigrated.Inc()
	c.migrationCost.Add(cost)
	if drained {
		c.binsDrained.Inc()
	}
}

// Registry returns the collector's registry, so callers can register
// additional instruments alongside the engine series.
func (c *Collector) Registry() *Registry { return c.reg }

// Snapshot freezes the current state of every instrument.
func (c *Collector) Snapshot() Snapshot { return c.reg.Snapshot() }

// BeforePack implements core.Observer: it timestamps the placement start.
func (c *Collector) BeforePack(req core.Request, open []*core.Bin) {
	now := c.clock.Now()
	c.mu.Lock()
	c.starts[placeKey{req.ID, req.SeqNo}] = now
	c.mu.Unlock()
}

// AfterPack implements core.Observer: it counts the placement, observes its
// wall time, and maintains the open-bin gauge and high-water mark.
func (c *Collector) AfterPack(req core.Request, b *core.Bin, opened bool) {
	now := c.clock.Now()
	c.mu.Lock()
	key := placeKey{req.ID, req.SeqNo}
	if start, ok := c.starts[key]; ok {
		delete(c.starts, key)
		if d := now - start; d >= 0 {
			c.placementSeconds.Observe(d.Seconds())
		}
	}
	c.mu.Unlock()
	c.countPlacement(req, opened)
}

// countPlacement is the per-run-state-free part of AfterPack, shared with
// RunView. The open-bin gauge is adjusted atomically and its high-water mark
// taken from the value this update installed, so the peak is correct even
// when several runs feed the gauge concurrently.
func (c *Collector) countPlacement(req core.Request, opened bool) {
	c.itemsPlaced.Inc()
	if req.Attempt > 0 {
		c.itemsRetried.Inc()
	}
	if opened {
		c.binsOpened.Inc()
		c.openBinsPeak.SetMax(c.openBins.AddAndGet(1))
	}
}

// BinClosed implements core.Observer: it counts the close and accrues the
// bin's usage time.
func (c *Collector) BinClosed(b *core.Bin, t float64) {
	c.binsClosed.Inc()
	c.openBins.Add(-1)
	c.usageTime.Add(t - b.OpenedAt)
}

// AfterSelect implements core.SelectObserver: it accounts the policy's fit
// checks for the decision that just completed.
func (c *Collector) AfterSelect(req core.Request, chosen *core.Bin, fitChecks int) {
	c.fitChecks.Add(uint64(fitChecks))
	c.fitChecksPerSelect.Observe(float64(fitChecks))
}

// dropStart discards the pending placement timestamp for a dispatch that did
// not complete (queued or rejected instead of packed), so the starts map
// cannot leak under admission control.
func (c *Collector) dropStart(req core.Request) {
	c.mu.Lock()
	delete(c.starts, placeKey{req.ID, req.SeqNo})
	c.mu.Unlock()
}

// BinCrashed implements core.FailureObserver. The usage-time accrual happened
// in BinClosed (which the engine fires first); this only counts the crash.
func (c *Collector) BinCrashed(b *core.Bin, t float64, evicted int) {
	c.binsCrashed.Inc()
}

// ItemEvicted implements core.FailureObserver: resumeAt - t is exactly the
// usage time the crash cost this item, whether it resumes or is lost — the
// same accumulation order the engine uses for Result.LostUsageTime.
func (c *Collector) ItemEvicted(req core.Request, from *core.Bin, t, resumeAt float64) {
	c.itemsEvicted.Inc()
	c.lostUsage.Add(resumeAt - t)
}

// ItemLost implements core.FailureObserver.
func (c *Collector) ItemLost(req core.Request, t float64) {
	c.itemsLost.Inc()
}

// ItemRejected implements core.FailureObserver.
func (c *Collector) ItemRejected(req core.Request, t float64, timedOut bool) {
	if timedOut {
		c.itemsTimedOut.Inc()
	} else {
		c.itemsRejected.Inc()
	}
	c.dropStart(req)
}

// ItemQueued implements core.FailureObserver.
func (c *Collector) ItemQueued(req core.Request, t float64) {
	c.itemsQueued.Inc()
	c.dropStart(req)
}

// ItemDequeued implements core.FailureObserver: the queue delay is simulated
// time, accumulated in the same order the engine adds Result.QueueDelay.
func (c *Collector) ItemDequeued(req core.Request, queuedAt, t float64) {
	c.itemsDequeued.Inc()
	c.queueDelay.Add(t - queuedAt)
}

// RunScoper is implemented by observers that can mint per-run views of
// themselves. The experiment harness scopes a shared observer through it
// before every simulation, so per-run matching state is never shared between
// concurrent engines while aggregate instruments still accumulate across the
// whole experiment.
type RunScoper interface {
	ForRun() core.Observer
}

var _ RunScoper = (*Collector)(nil)

// ForRun returns a view of the collector for one simulation run. The view
// feeds the same registry instruments as the collector, but keeps its own
// BeforePack→AfterPack matching state: two concurrent runs may carry items
// with identical (ID, SeqNo), and matching them through one shared map would
// cross-pair timestamps between runs (corrupting the placement-latency
// histogram). A view must observe a single simulation at a time; mint one per
// run.
func (c *Collector) ForRun() core.Observer {
	return &RunView{Collector: c, starts: make(map[placeKey]time.Duration)}
}

// RunView is a single-run view of a shared Collector; see ForRun. It
// overrides exactly the methods that touch per-run matching state and
// inherits the pure instrument updates.
type RunView struct {
	*Collector
	mu     sync.Mutex
	starts map[placeKey]time.Duration
}

var (
	_ core.Observer        = (*RunView)(nil)
	_ core.SelectObserver  = (*RunView)(nil)
	_ core.FailureObserver = (*RunView)(nil)
)

// BeforePack implements core.Observer against the view's own matching state.
func (v *RunView) BeforePack(req core.Request, open []*core.Bin) {
	now := v.Collector.clock.Now()
	v.mu.Lock()
	v.starts[placeKey{req.ID, req.SeqNo}] = now
	v.mu.Unlock()
}

// AfterPack implements core.Observer against the view's own matching state.
func (v *RunView) AfterPack(req core.Request, b *core.Bin, opened bool) {
	now := v.Collector.clock.Now()
	v.mu.Lock()
	key := placeKey{req.ID, req.SeqNo}
	if start, ok := v.starts[key]; ok {
		delete(v.starts, key)
		if d := now - start; d >= 0 {
			v.Collector.placementSeconds.Observe(d.Seconds())
		}
	}
	v.mu.Unlock()
	v.Collector.countPlacement(req, opened)
}

func (v *RunView) dropStart(req core.Request) {
	v.mu.Lock()
	delete(v.starts, placeKey{req.ID, req.SeqNo})
	v.mu.Unlock()
}

// ItemRejected implements core.FailureObserver against the view's own state.
func (v *RunView) ItemRejected(req core.Request, t float64, timedOut bool) {
	if timedOut {
		v.Collector.itemsTimedOut.Inc()
	} else {
		v.Collector.itemsRejected.Inc()
	}
	v.dropStart(req)
}

// ItemQueued implements core.FailureObserver against the view's own state.
func (v *RunView) ItemQueued(req core.Request, t float64) {
	v.Collector.itemsQueued.Inc()
	v.dropStart(req)
}
