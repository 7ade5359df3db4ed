package core

// This file defines the failure/recovery seams of the engine: fault
// injection (forced bin closure with eviction), retry scheduling for evicted
// items, finite-fleet admission control, and the observer extension that
// exposes all failure-path events to instrumentation.
//
// The paper's model assumes an unbounded, perfectly reliable fleet; these
// seams relax both assumptions while keeping the engine fully deterministic:
// no wall clock, no global RNG — every fault schedule is a pure function of
// its seed and the simulated timeline, so the same inputs reproduce the same
// run bit for bit.

// FailureInjector decides, when a bin opens, whether and when that bin
// crashes. Implementations must be deterministic: the crash time may depend
// only on the injector's own configuration (seed, trace) and the (binID,
// openedAt) arguments. internal/faults provides seeded MTBF and explicit
// trace schedules.
//
// The engine calls BinOpened exactly once per opened bin, in opening order.
// Returned crash times that are NaN or not strictly after openedAt are
// ignored (the bin never crashes); a crash scheduled after the bin has
// closed naturally is a no-op.
type FailureInjector interface {
	// BinOpened returns the absolute simulation time at which the bin with
	// the given ID (opened at openedAt) crashes. ok=false means the bin
	// never crashes.
	BinOpened(binID int, openedAt float64) (crashAt float64, ok bool)
}

// RetryPolicy schedules the re-dispatch of items evicted by a bin crash.
// attempt is 1 for the first eviction of an item, 2 for the second, and so
// on. Negative delays are treated as 0; a delay that pushes the re-dispatch
// to or past the item's departure time makes the item lost (it cannot
// resume). internal/faults provides immediate, fixed-delay and capped
// exponential-backoff implementations.
type RetryPolicy interface {
	// Name returns a stable identifier, e.g. "backoff(1,cap=30)".
	Name() string
	// Delay returns the re-dispatch delay for the given eviction attempt.
	Delay(attempt int) float64
}

// retryNow is the default RetryPolicy when faults are injected without an
// explicit policy: evicted items re-dispatch at the crash instant.
type retryNow struct{}

func (retryNow) Name() string      { return "immediate" }
func (retryNow) Delay(int) float64 { return 0 }

// FailureObserver is an optional extension of Observer (like
// SelectObserver): when an attached Observer also implements it, the engine
// reports every failure-path event to it. metrics.Collector implements it to
// give eviction/retry/rejection/queue counters.
//
// Note that under admission control a BeforePack callback is not always
// followed by AfterPack: a dispatch that is queued or rejected fires
// ItemQueued or ItemRejected instead, and a queued item's retry that finds
// the fleet still full fires nothing and stays queued.
//
// The crashed bin BinCrashed and ItemEvicted receive still holds its evicted
// items and their load, and it is valid until those callbacks return (see
// Bin): the engine may reopen it for the next dispatch under a new ID.
type FailureObserver interface {
	// BinCrashed fires when fault injection forcibly closes a bin at time t,
	// after the bin's BinClosed callback. evicted is the number of items
	// that were still active in the bin.
	BinCrashed(b *Bin, t float64, evicted int)
	// ItemEvicted fires for each item displaced by a crash, in ascending
	// item-ID order. resumeAt is the scheduled re-dispatch time, or the
	// item's departure time when the item is lost (the retry delay would
	// push it past its own departure) — either way, resumeAt-t is the
	// usage time lost to the crash.
	ItemEvicted(req Request, from *Bin, t, resumeAt float64)
	// ItemLost fires after ItemEvicted when the evicted item cannot be
	// re-dispatched before its departure. Terminal for the item.
	ItemLost(req Request, t float64)
	// ItemRejected fires when a dispatch is dropped by admission control:
	// timedOut=false means the fleet was full and no queue is configured;
	// timedOut=true means the item waited in the admission queue until its
	// deadline (or its own departure) passed. Terminal for the item.
	ItemRejected(req Request, t float64, timedOut bool)
	// ItemQueued fires when a dispatch finds the fleet full and enters the
	// admission queue.
	ItemQueued(req Request, t float64)
	// ItemDequeued fires when a queued item is finally placed, immediately
	// before its AfterPack callback. queuedAt is the enqueue time.
	ItemDequeued(req Request, queuedAt, t float64)
}

// BaseFailureObserver is a FailureObserver with no-op methods, for
// embedding alongside BaseObserver.
type BaseFailureObserver struct{}

// BinCrashed implements FailureObserver.
func (BaseFailureObserver) BinCrashed(*Bin, float64, int) {}

// ItemEvicted implements FailureObserver.
func (BaseFailureObserver) ItemEvicted(Request, *Bin, float64, float64) {}

// ItemLost implements FailureObserver.
func (BaseFailureObserver) ItemLost(Request, float64) {}

// ItemRejected implements FailureObserver.
func (BaseFailureObserver) ItemRejected(Request, float64, bool) {}

// ItemQueued implements FailureObserver.
func (BaseFailureObserver) ItemQueued(Request, float64) {}

// ItemDequeued implements FailureObserver.
func (BaseFailureObserver) ItemDequeued(Request, float64, float64) {}

// WithFaults injects server crashes into the run: inj schedules a crash time
// per opened bin, and rp schedules the re-dispatch of evicted items (nil
// means immediate re-dispatch). A crash forcibly closes the bin — its usage
// accrues up to the crash instant — and returns its active items to the
// dispatcher; each re-placement is a fresh packing decision with
// Request.Attempt incremented.
func WithFaults(inj FailureInjector, rp RetryPolicy) Option {
	return func(c *config) {
		c.injector = inj
		if rp != nil {
			c.retry = rp
		}
	}
}

// WithMaxBins caps the fleet at n simultaneously open bins (n <= 0 means
// unbounded, the paper's model). When an item fits no open bin and the cap
// is reached, the dispatch is rejected — or queued, if WithAdmissionQueue is
// also configured.
func WithMaxBins(n int) Option {
	return func(c *config) { c.maxBins = n }
}

// WithAdmissionQueue enables graceful degradation under WithMaxBins: a
// dispatch that cannot be admitted waits in a FIFO queue and is retried
// whenever capacity frees (a departure, close or crash). An entry is dropped
// as timed out once deadline time units have passed since it was queued, or
// once its own departure time is reached, whichever comes first. The
// deadline itself is inclusive: an entry can still be placed at exactly
// queuedAt+deadline.
func WithAdmissionQueue(deadline float64) Option {
	return func(c *config) {
		c.queueWhenFull = true
		c.queueDeadline = deadline
	}
}
