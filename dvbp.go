// Package dvbp is the public API of this MinUsageTime Dynamic Vector Bin
// Packing (DVBP) library — a full reproduction of
//
//	Murhekar, Arbour, Mai, Rao.
//	"Dynamic Vector Bin Packing for Online Resource Allocation in the Cloud."
//	SPAA 2023 (Brief Announcement).
//
// Items with d-dimensional resource demands arrive online and must be packed
// immediately and irrevocably into unit-capacity bins; the objective is the
// total bin usage time (server rental cost). The package exposes:
//
//   - the seven Any Fit packing policies the paper studies (Move To Front,
//     First Fit, Best Fit, Next Fit, Last Fit, Random Fit, Worst Fit) plus
//     clairvoyant extensions, all running on a deterministic event-driven
//     simulation engine;
//   - the Lemma 1 lower bounds on OPT and offline heuristic upper estimates;
//   - workload generators (the paper's uniform model and cloud-session
//     models) with CSV/JSON trace round-tripping;
//   - the Section 6 adversarial constructions with competitive-ratio
//     certificates;
//   - a fault-injection and failure-recovery layer: deterministic crash
//     schedules (seeded MTBF or explicit traces), eviction with retry
//     backoff, and finite fleets with admission control (see cmd/dvbpchaos);
//   - the experiment harness that regenerates every table and figure of the
//     paper (see cmd/dvbpbench).
//
// Quick start:
//
//	l := dvbp.NewList(2)                   // 2 resource dimensions
//	l.Add(0, 10, dvbp.Vec(0.5, 0.25))      // arrive, depart, size
//	l.Add(1, 4, dvbp.Vec(0.5, 0.5))
//	res, err := dvbp.Simulate(l, dvbp.NewMoveToFront())
//	if err != nil { ... }
//	fmt.Println(res.Cost, res.BinsOpened)
//
// The subsystem packages under internal/ hold the implementations; this
// package re-exports the stable surface.
package dvbp

import (
	"dvbp/internal/adversary"
	"dvbp/internal/clairvoyant"
	"dvbp/internal/core"
	"dvbp/internal/faults"
	"dvbp/internal/item"
	"dvbp/internal/lowerbound"
	"dvbp/internal/offline"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// Vector is a d-dimensional non-negative size/demand vector.
type Vector = vector.Vector

// Vec builds a Vector from components.
func Vec(xs ...float64) Vector { return vector.Of(xs...) }

// Item is one online job/request: arrival, departure and size vector.
type Item = item.Item

// List is an ordered DVBP instance; order breaks ties among simultaneous
// arrivals.
type List = item.List

// NewList returns an empty instance with d resource dimensions.
func NewList(d int) *List { return item.NewList(d) }

// Policy decides which open bin receives each arriving item. All policies in
// this package are safe to reuse across simulations (the engine resets them).
type Policy = core.Policy

// Request is the non-clairvoyant view of an arriving item that policies see.
type Request = core.Request

// Bin is an open bin as exposed to policies (read-only).
type Bin = core.Bin

// Result is a simulation outcome: total usage-time cost, bins opened,
// placements and per-bin usage records.
type Result = core.Result

// Option configures Simulate (e.g. WithClairvoyance, WithAudit).
type Option = core.Option

// Audit records packing decisions for invariant checking.
type Audit = core.Audit

// Simulate runs the online packing of l under policy p and returns the
// resulting packing and cost. See core.Simulate for event-ordering semantics.
func Simulate(l *List, p Policy, opts ...Option) (*Result, error) {
	return core.Simulate(l, p, opts...)
}

// WithClairvoyance exposes departure times to the policy (clairvoyant DVBP).
func WithClairvoyance() Option { return core.WithClairvoyance() }

// WithAudit records every packing decision into a, for invariant checking.
func WithAudit(a *Audit) Option { return core.WithAudit(a) }

// Observer receives engine lifecycle callbacks during a simulation
// (BeforePack, AfterPack, BinClosed). Attaching one never changes results.
// internal/metrics.Collector is the ready-made implementation that turns the
// callbacks into counters, gauges and histograms.
type Observer = core.Observer

// BaseObserver is a no-op Observer for embedding, so implementations only
// override the callbacks they care about.
type BaseObserver = core.BaseObserver

// WithObserver attaches an Observer to a simulation.
func WithObserver(o Observer) Option { return core.WithObserver(o) }

// NewMoveToFront returns the Move To Front policy — the paper's recommended
// algorithm (competitive ratio ≤ (2μ+1)d + 1, best average-case behaviour).
func NewMoveToFront() Policy { return core.NewMoveToFront() }

// NewFirstFit returns the First Fit policy (competitive ratio ≤ (μ+2)d + 1).
func NewFirstFit() Policy { return core.NewFirstFit() }

// NewNextFit returns the Next Fit policy (competitive ratio ≤ 2μd + 1).
func NewNextFit() Policy { return core.NewNextFit() }

// NewBestFit returns Best Fit under the L∞ ("max load") measure, as in the
// paper's experiments. Its competitive ratio is unbounded but its
// average-case behaviour is close to First Fit.
func NewBestFit() Policy { return core.NewBestFit(core.MaxLoad()) }

// NewWorstFit returns Worst Fit under the L∞ measure.
func NewWorstFit() Policy { return core.NewWorstFit(core.MaxLoad()) }

// NewLastFit returns Last Fit (most recently opened bin first).
func NewLastFit() Policy { return core.NewLastFit() }

// NewRandomFit returns Random Fit driven by the given seed.
func NewRandomFit(seed int64) Policy { return core.NewRandomFit(seed) }

// NewPolicy constructs a policy by canonical name (see core.NewPolicy for
// the accepted names, e.g. "MoveToFront", "ff", "BestFit-L1").
func NewPolicy(name string, seed int64) (Policy, error) { return core.NewPolicy(name, seed) }

// PolicyNames lists the seven Any Fit policies from the paper's experiments.
func PolicyNames() []string { return core.PolicyNames() }

// StandardPolicies returns fresh instances of all seven experiment policies.
func StandardPolicies(seed int64) []Policy { return core.StandardPolicies(seed) }

// NewDurationClassFit returns the clairvoyant duration-class policy
// (requires WithClairvoyance).
func NewDurationClassFit() Policy { return clairvoyant.NewDurationClassFit(0) }

// NewAlignedBestFit returns the clairvoyant alignment-aware Best Fit
// (requires WithClairvoyance).
func NewAlignedBestFit() Policy { return clairvoyant.NewAlignedBestFit() }

// NewWindowedClassFit returns the clairvoyant windowed duration-class policy:
// class-c bins accept items only during their first 2^c time units, capping
// every bin's span below twice its class window (requires WithClairvoyance).
func NewWindowedClassFit() Policy { return clairvoyant.NewWindowedClassFit(0) }

// Bounds holds the Lemma 1 lower bounds on the optimal offline cost.
type Bounds = lowerbound.Bounds

// LowerBounds computes the three Lemma 1 lower bounds on OPT(l).
func LowerBounds(l *List) Bounds { return lowerbound.Compute(l) }

// OfflinePacking is a feasible offline packing (an upper estimate of OPT).
type OfflinePacking = offline.Packing

// OfflineBestEstimate returns the cheapest packing among the offline
// heuristics — together with LowerBounds it brackets OPT.
func OfflineBestEstimate(l *List) (*OfflinePacking, error) { return offline.BestUpperEstimate(l) }

// UniformConfig is the paper's Table 2 workload model.
type UniformConfig = workload.UniformConfig

// UniformWorkload generates one instance of the paper's experimental model.
func UniformWorkload(cfg UniformConfig, seed int64) (*List, error) {
	return workload.Uniform(cfg, seed)
}

// SessionConfig is the cloud-session workload model (Poisson arrivals,
// heavy-tailed durations, typed demands).
type SessionConfig = workload.SessionConfig

// SessionWorkload generates a cloud-session trace.
func SessionWorkload(cfg SessionConfig, seed int64) (*List, error) {
	return workload.Sessions(cfg, seed)
}

// AdversarialInstance is a worst-case instance with a competitive-ratio
// certificate.
type AdversarialInstance = adversary.Instance

// TheoremFiveInstance builds the Theorem 5 sequence forcing any Any Fit
// algorithm toward ratio (μ+1)d.
func TheoremFiveInstance(d, k int, mu float64) (*AdversarialInstance, error) {
	return adversary.Theorem5(d, k, mu)
}

// TheoremSixInstance builds the Theorem 6 sequence forcing Next Fit toward
// ratio 2μd.
func TheoremSixInstance(d, k int, mu float64) (*AdversarialInstance, error) {
	return adversary.Theorem6(d, k, mu)
}

// TheoremEightInstance builds the Theorem 8 sequence forcing Move To Front
// toward ratio 2μ in one dimension.
func TheoremEightInstance(n int, mu float64) (*AdversarialInstance, error) {
	return adversary.Theorem8(n, mu)
}

// BestFitDegradationInstance builds the pillar/sliver family on which Best
// Fit's competitive ratio grows without bound (≈ 2R/3 at L = R²) while First
// Fit and Move To Front stay flat — the library's certified substitute for
// the Li–Tang–Cai construction cited by Theorem 7.
func BestFitDegradationInstance(r int) (*AdversarialInstance, error) {
	return adversary.BestFitPillars(r, float64(r*r))
}

// FailureInjector decides, per opened bin, whether and when it crashes.
// Implementations must be deterministic functions of their configuration —
// internal/faults provides seeded MTBF schedules and explicit traces.
type FailureInjector = core.FailureInjector

// RetryPolicy maps an eviction's attempt number to a re-dispatch delay.
type RetryPolicy = core.RetryPolicy

// FailureObserver extends Observer with failure-path callbacks (crashes,
// evictions, losses, admission rejections, queueing).
type FailureObserver = core.FailureObserver

// BaseFailureObserver is a no-op FailureObserver for embedding.
type BaseFailureObserver = core.BaseFailureObserver

// Outcome classifies how the engine disposed of one item under faults and
// admission control (served, lost, rejected, timed out).
type Outcome = core.Outcome

// Outcome values, mirrored from internal/core.
const (
	OutcomeServed   = core.OutcomeServed
	OutcomeLost     = core.OutcomeLost
	OutcomeRejected = core.OutcomeRejected
	OutcomeTimedOut = core.OutcomeTimedOut
)

// WithFaults injects a deterministic crash schedule into a simulation: bins
// crash per inj, evicted items re-dispatch per retry (nil = immediately).
func WithFaults(inj FailureInjector, retry RetryPolicy) Option {
	return core.WithFaults(inj, retry)
}

// WithMaxBins caps the fleet at n concurrently open bins; dispatches that
// find no room are rejected (or queued, with WithAdmissionQueue).
func WithMaxBins(n int) Option { return core.WithMaxBins(n) }

// WithAdmissionQueue holds dispatches that the full fleet cannot place and
// retries them as capacity frees, abandoning them after deadline time units.
func WithAdmissionQueue(deadline float64) Option { return core.WithAdmissionQueue(deadline) }

// MTBFSchedule is a seeded exponential (memoryless) crash schedule: each bin
// draws its time-to-failure from its (Seed, BinID) stream, so runs replay
// bit-identically.
type MTBFSchedule = faults.MTBF

// CrashTrace is an explicit, validated list of bin-crash events.
type CrashTrace = faults.Trace

// CrashEvent is one entry of a CrashTrace: a bin and its crash time,
// absolute or relative to the bin's opening.
type CrashEvent = faults.TraceEvent

// NewCrashTrace validates events and builds a CrashTrace.
func NewCrashTrace(events []CrashEvent) (*CrashTrace, error) { return faults.NewTrace(events) }

// RetryImmediate re-dispatches evicted items at the crash instant.
type RetryImmediate = faults.Immediate

// RetryFixed re-dispatches evicted items after a constant wait.
type RetryFixed = faults.Fixed

// RetryBackoff re-dispatches with exponential backoff (Base·Factor^(k−1),
// capped at Cap).
type RetryBackoff = faults.Backoff

// ParseRetry parses a retry-policy spec such as "immediate", "fixed:2" or
// "backoff:0.5:30:2" (the CLI -retry syntax).
func ParseRetry(s string) (RetryPolicy, error) { return faults.ParseRetry(s) }

// ParseCrashTrace parses a compact crash-trace spec such as "0@5,2+1.5"
// (bin@absolute-time, bin+time-after-open — the CLI -crash-trace syntax).
func ParseCrashTrace(s string) (*CrashTrace, error) { return faults.ParseTrace(s) }

// FaultPlan bundles an injector, retry policy and fleet limits into the
// Option set a chaos run needs; see cmd/dvbpchaos for the CLI counterpart.
type FaultPlan = faults.Plan
