package core

import (
	"strings"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// TestIndexedSelectMatchesLinearScan is the core bit-identity contract of
// DESIGN.md §11: for every policy and instance, the default engine path
// (the bin index for Best/Worst Fit, the held open-load totals for
// AdaptiveHybrid, the policy's own scan for the rest) and the
// WithLinearSelect scan produce byte-identical results — identical
// placements, bins, cost, and counters.
func TestIndexedSelectMatchesLinearScan(t *testing.T) {
	for seed := int64(400); seed < 406; seed++ {
		for _, d := range []int{1, 2, 5} {
			l := randomList(seed, 300, d, 25)
			for _, name := range policyNamesWith(t) {
				want := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, seed), WithLinearSelect()))
				got := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, seed)))
				if got != want {
					t.Errorf("%s seed=%d d=%d: indexed result diverges from linear scan", name, seed, d)
				}
			}
		}
	}
}

// TestIndexedSelectMatchesLinearScanUnderFaults extends the bit-identity
// contract to the failure paths: crashes evict items mid-run, retries
// re-dispatch them, admission is capped with a wait queue — and the indexed
// engine must still follow the linear scan decision for decision.
func TestIndexedSelectMatchesLinearScanUnderFaults(t *testing.T) {
	for seed := int64(500); seed < 505; seed++ {
		for _, d := range []int{1, 2, 5} {
			l := randomList(seed, 250, d, 20)
			for _, name := range policyNamesWith(t) {
				want := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, seed),
					append(snapshotOpts(), WithLinearSelect())...))
				got := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, seed), snapshotOpts()...))
				if got != want {
					t.Errorf("%s seed=%d d=%d: indexed result diverges from linear scan under faults", name, seed, d)
				}
			}
		}
	}
}

// TestIndexedSelectMatchesLinearAcrossRestore closes the loop with the
// persistence layer: an indexed engine snapshotted mid-run and restored into
// a fresh engine (index rebuilt from the snapshot, never serialised) must
// finish with the same result as an uninterrupted linear-scan run.
func TestIndexedSelectMatchesLinearAcrossRestore(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		l := randomList(600, 200, d, 20)
		for _, name := range policyNamesWith(t) {
			want := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, 600),
				append(snapshotOpts(), WithLinearSelect())...))

			for _, cut := range []int{0, 1, 37, 150} {
				e, err := NewEngine(l, newPolicyT(t, name, 600), snapshotOpts()...)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				for k := 0; k < cut; k++ {
					if _, ok, err := e.Step(); err != nil {
						t.Fatalf("%s d=%d: Step %d: %v", name, d, k, err)
					} else if !ok {
						break
					}
				}
				s, err := e.Snapshot()
				if err != nil {
					t.Fatalf("%s d=%d: Snapshot at %d: %v", name, d, cut, err)
				}
				e.Close()
				re, err := RestoreEngine(l, newPolicyT(t, name, 999), s, snapshotOpts()...)
				if err != nil {
					t.Fatalf("%s d=%d: RestoreEngine at %d: %v", name, d, cut, err)
				}
				_, res := stepAll(t, re)
				if got := resultJSON(t, res); got != want {
					t.Errorf("%s d=%d: restored-at-%d indexed run diverges from linear scan", name, d, cut)
				}
			}
		}
	}
}

// TestIndexedAuditOracle arms the per-decision oracle: under WithAudit the
// engine re-derives every fast-path decision with the policy's own scan,
// re-validates the store's structural invariants and checks the held
// open-load totals against a fresh sum after every mutation, so a single
// run per policy sweeps thousands of equivalence checks. Crashes are on, so
// crash closes and evictions are among the audited mutations.
func TestIndexedAuditOracle(t *testing.T) {
	for seed := int64(700); seed < 703; seed++ {
		for _, d := range []int{1, 2, 5} {
			l := randomList(seed, 300, d, 25)
			for _, name := range policyNamesWith(t) {
				var a Audit
				mustSimulate(t, l, newPolicyT(t, name, seed), WithAudit(&a), snapshotOpts()[0])
			}
		}
	}
}

// TestIndexedCrashRetrySameEvent is the regression test for the
// crash-eviction reorder case: a crashed bin's evicted items retry with zero
// delay, so they re-dispatch inside the same event that removed the crashed
// bin from the index — and the later retries land in the bin the earlier
// retries just opened. The index must see the removal before the insert and
// serve the re-packs from a consistent tree; audit mode cross-checks every
// one of those decisions against the linear scan.
func TestIndexedCrashRetrySameEvent(t *testing.T) {
	// Three small items share bin 0; it crashes at t=4 while all are
	// resident. With nil RetryPolicy the evictions retry immediately: the
	// first retry opens bin 1 (indexed mid-event), the remaining two must
	// be packed into that same just-opened bin.
	l := item.NewList(1)
	l.Add(0, 10, vector.Of(0.3))
	l.Add(0, 10, vector.Of(0.3))
	l.Add(0, 10, vector.Of(0.3))

	for _, name := range policyNamesWith(t) {
		var a Audit
		res := mustSimulate(t, l, newPolicyT(t, name, 1), WithAudit(&a), WithFaults(traceInj{0: 4}, nil))
		if res.Crashes != 1 || res.Evictions != 3 || res.Retries != 3 || res.ItemsLost != 0 {
			t.Fatalf("%s: counters: crashes=%d evictions=%d retries=%d lost=%d",
				name, res.Crashes, res.Evictions, res.Retries, res.ItemsLost)
		}
		want := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, 1),
			WithLinearSelect(), WithFaults(traceInj{0: 4}, nil)))
		if got := resultJSON(t, res); got != want {
			t.Errorf("%s: same-event crash-retry result diverges from linear scan", name)
		}
	}
}

// TestLinearSelectOptionForcesScan pins WithLinearSelect's contract for both
// fast paths: the engine must build neither the bin index (Worst Fit) nor
// the held totals (AdaptiveHybrid), so every decision is the policy's own
// Select and fit-check accounting is its own probe count.
func TestLinearSelectOptionForcesScan(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 10, vector.Of(0.6))
	l.Add(1, 10, vector.Of(0.6))
	for _, p := range []Policy{NewWorstFit(MaxLoad()), NewAdaptiveHybrid()} {
		fast, err := NewEngine(l, p)
		if err != nil {
			t.Fatal(err)
		}
		if fast.idx == nil && fast.totals == nil {
			t.Fatalf("%s: the default engine took no fast path, so this test proves nothing", p.Name())
		}
		fast.Close()
		e, err := NewEngine(l, p, WithLinearSelect())
		if err != nil {
			t.Fatal(err)
		}
		if e.idx != nil || e.tp != nil || e.totals != nil {
			t.Errorf("%s: WithLinearSelect must suppress the bin index and the held totals", p.Name())
		}
		e.Close()
	}
}

// TestSelectPathRouting pins which Select path the engine takes for every
// policy the registry advertises, at d = 1, 2 and 5: the bin index for Best
// Fit at d = 1 only and for Worst Fit at every d, under every load measure;
// the held open-load totals for AdaptiveHybrid; and the policy's own scan
// for everything else (DESIGN.md §11 has the measurements behind the rule).
// Parameter placeholders (<p>, <K>) are filled with representative values.
func TestSelectPathRouting(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		l := item.NewList(d)
		l.Add(0, 1, vector.New(d))
		for _, line := range PolicySpellings() {
			head := strings.TrimSpace(strings.SplitN(line, "(", 2)[0])
			for _, sp := range strings.Split(head, "|") {
				sp = strings.NewReplacer("<p>", "3", "<K>", "4").Replace(strings.TrimSpace(sp))
				p := newPolicyT(t, sp, 1)
				e, err := NewEngine(l, p)
				if err != nil {
					t.Fatal(err)
				}
				var got string
				switch {
				case e.idx != nil && e.tp == nil && e.totals == nil:
					got = "index"
				case e.idx == nil && e.tp != nil && e.totals != nil:
					got = "totals"
				case e.idx == nil && e.tp == nil && e.totals == nil:
					got = "scan"
				default:
					got = "mixed"
				}
				e.Close()
				want := "scan"
				switch name := p.Name(); {
				case strings.HasPrefix(name, "BestFit") && d == 1, strings.HasPrefix(name, "WorstFit"):
					want = "index"
				case name == "AdaptiveHybrid":
					want = "totals"
				}
				if got != want {
					t.Errorf("%q (%s) at d=%d: engine path %s, want %s", sp, p.Name(), d, got, want)
				}
			}
		}
	}
}

// TestOpenLoadTotalsTrackMutations drives AdaptiveHybrid — the policy whose
// engine path reads the held open-load totals — through every kind of
// open-set mutation: packs into fresh and existing bins, departures, crash
// closes with evictions and retries, migration moves and drains, and
// checkpoint restores. After each of them the held totals must round to
// exactly a fresh vector.Acc sum over the open bins.
func TestOpenLoadTotalsTrackMutations(t *testing.T) {
	l := randomList(800, 300, 2, 20)
	opts := []Option{
		snapshotOpts()[0], // crashes, evictions and retries
		WithMigration(testConsolidator{}, 3, MigrationBudget{MaxMoves: 4}),
	}
	check := func(e *Engine, after string) {
		t.Helper()
		fresh := make([]vector.Acc, l.Dim)
		for _, b := range e.AppendOpenBins(nil) {
			for j := range fresh {
				fresh[j].Add(b.LoadAt(j))
			}
		}
		for j := range fresh {
			if got, want := e.totals[j].Round(), fresh[j].Round(); got != want {
				t.Fatalf("after %s at event %d: held total[%d] = %v, fresh sum %v", after, e.EventSeq(), j, got, want)
			}
		}
	}
	e, err := NewEngine(l, NewAdaptiveHybrid(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[EventClass]int{}
	restores := 0
	for {
		if e.EventSeq()%97 == 50 {
			s, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			e.Close()
			if e, err = RestoreEngine(l, NewAdaptiveHybrid(), s, opts...); err != nil {
				t.Fatal(err)
			}
			restores++
			check(e, "restore")
		}
		rec, ok, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen[rec.Class]++
		check(e, rec.Class.String())
	}
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []EventClass{EventArrival, EventDeparture, EventCrash, EventRetry, EventMigration} {
		if seen[c] == 0 {
			t.Errorf("no %s events: the workload misses a mutation site", c)
		}
	}
	if restores == 0 {
		t.Error("no restore: the workload misses a mutation site")
	}
	t.Logf("events by class %v, %d restores", seen, restores)
}

// policyNamesWith lists the canonical registry names the differentials run
// over, including both Best/Worst Fit load measures (their keys exercise the
// float word of the composite key) and the fragmentation-aware family
// (AdaptiveHybrid is the held-totals fast path).
func policyNamesWith(t *testing.T) []string {
	t.Helper()
	return append(append(PolicyNames(), "BestFit-L1", "WorstFit-L1", "HarmonicFit-3"),
		FragmentationAwareNames()...)
}

// newPolicyT constructs a registry policy or fails the test.
func newPolicyT(t *testing.T, name string, seed int64) Policy {
	t.Helper()
	p, err := NewPolicy(name, seed)
	if err != nil {
		t.Fatalf("NewPolicy(%q): %v", name, err)
	}
	return p
}
