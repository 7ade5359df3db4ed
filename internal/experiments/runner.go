package experiments

import (
	"context"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/lowerbound"
	"dvbp/internal/metrics"
	"dvbp/internal/parallel"
)

// RunControl bundles the execution knobs shared by every experiment config:
// scheduler parallelism, cancellation, and engine observability. It is
// embedded in the experiment configs, so its fields are read and written as
// cfg.Workers, cfg.Ctx, and so on. None of the fields affect experiment
// results — the determinism contract (DESIGN.md §9) guarantees bit-identical
// output for every Workers value and completion order.
type RunControl struct {
	// Workers bounds scheduler parallelism (<= 0: GOMAXPROCS).
	Workers int
	// Ctx cancels outstanding shards early (e.g. a command -timeout); nil
	// means Background. On cancellation the run returns the context error.
	Ctx context.Context
	// Observer, when non-nil, is attached to every simulation the experiment
	// runs (via core.WithObserver), before any observer the experiment
	// attaches itself (the frag and defrag studies' FragTrackers). Shards
	// execute in parallel, so the observer must be safe for concurrent use;
	// a shared metrics.Collector qualifies and aggregates counters across
	// the whole experiment — each simulation gets its own run-scoped view
	// (metrics.RunScoper) so concurrent engines never share per-run observer
	// state. The observer does not affect packing results.
	Observer core.Observer
}

func (rc RunControl) runOptions() parallel.RunOptions {
	return parallel.RunOptions{Workers: rc.Workers, Context: rc.Ctx}
}

// observerOpts converts the optional shared observer into Simulate options
// for ONE simulation run. Observers that implement metrics.RunScoper (the
// shared metrics.Collector does) are scoped per run, so per-run state such as
// placement-latency timestamps is never shared between concurrent engines.
func (rc RunControl) observerOpts() []core.Option {
	o := rc.Observer
	if o == nil {
		return nil
	}
	if rs, ok := o.(metrics.RunScoper); ok {
		o = rs.ForRun()
	}
	return []core.Option{core.WithObserver(o)}
}

// costOnlyOpts is observerOpts for a run whose caller reads only the
// Result's scalars: the run keeps no history (core.WithHistory(nil)), so it
// pays for no placement, bin or outcome records.
func (rc RunControl) costOnlyOpts() []core.Option {
	return append(rc.observerOpts(), core.WithHistory(nil))
}

// boundedInstance prepares a generated list for the runs of every policy and
// computes its Lemma 1(i) bound over the arrival and departure orders those
// runs read, so the list's events are sorted once for the bound and all the
// runs together.
func boundedInstance(l *item.List) (*core.Instance, float64, error) {
	in, err := core.NewInstance(l)
	if err != nil {
		return nil, 0, err
	}
	arrivals, departures := in.Orders()
	return in, lowerbound.IntegralBoundOf(l, arrivals, departures), nil
}
