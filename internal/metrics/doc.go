// Package metrics is a zero-dependency observability layer for the packing
// engine: counters, gauges, fixed-boundary histograms, and a monotonic clock
// abstraction, collected into a Registry whose snapshots render as JSON or
// Prometheus text exposition.
//
// The package exists because the paper's evaluation — and the follow-up
// studies it cites — judge Any Fit policies by empirical behaviour. A final
// core.Result says how a run ended; the metrics here say how it unfolded:
// how many fit checks each Select performed, how the open-bin population
// rose and fell, how usage time accrued over the event sweep, and how long
// individual placements took.
//
// # Instruments
//
// Three instrument kinds cover the engine's needs:
//
//   - Counter: a monotonically increasing uint64 (items placed, bins
//     opened, fit checks).
//   - Gauge: an arbitrary float64 with Set/Add/SetMax (open bins,
//     high-water marks, accrued usage time).
//   - Histogram: observations bucketed by fixed, ascending upper bounds
//     chosen at construction time (placement latency, fit checks per
//     Select). Fixed boundaries keep snapshots mergeable and the text
//     exposition stable.
//
// All instruments are safe for concurrent use.
//
// # Clocks
//
// Wall-time measurements go through the Clock interface. NewWallClock
// returns a monotonic clock for production use; Manual is a hand-advanced
// clock so tests asserting on timing histograms stay deterministic.
//
// # Collector
//
// Collector implements core.Observer (and the optional core.SelectObserver
// extension) and records a per-run series into its Registry. Attach it with
// core.WithObserver:
//
//	col := metrics.NewCollector()
//	res, err := core.Simulate(l, core.NewFirstFit(), core.WithObserver(col))
//	...
//	fmt.Println(col.Snapshot().Prometheus())
//
// On a single run the collector's counters match the run's Result exactly:
// dvbp_items_placed_total == Result.Items, dvbp_bins_opened_total ==
// Result.BinsOpened, dvbp_open_bins_peak == Result.MaxConcurrentBins and
// dvbp_usage_time_total == Result.Cost (up to float formatting).
//
// A Registry is never serialised for restore. A persisted dvbpsim or
// dvbpchaos run resumes by re-stepping its op log from event 0 with the
// collector attached, so the collector sees every event again; under a
// Manual clock the resumed run's metrics equal an uninterrupted run's byte
// for byte.
//
// To share one Collector across concurrent simulations, give each run its own
// view via ForRun (Collector implements RunScoper; the experiment harness
// scopes shared observers automatically). Views feed the same registry —
// counters and gauges aggregate across runs, dvbp_open_bins_peak becomes the
// concurrent high-water mark — but each view matches BeforePack/AfterPack
// pairs privately, so the placement-latency histogram stays exact even when
// runs carry items with identical identifiers. Attaching the Collector itself
// to concurrent runs is safe but cross-pairs those timestamps, corrupting the
// latency histogram.
package metrics
