package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// withIndexPeak is the test seam of the size rule: the engine builds an
// IndexedPolicy's bin index at the first dispatch after the run's peak
// open-bin count reaches peak, instead of indexMinPeak. The differential
// suites below lower it so that their small fleets run on the index.
func withIndexPeak(peak int) Option {
	return func(c *config) { c.indexPeak = peak }
}

// simulateRoutes runs l under p on the engine's default path, with the
// index built from the given peak on (stepRoutes).
func simulateRoutes(t *testing.T, l *item.List, p Policy, peak int, opts ...Option) (*Result, int) {
	t.Helper()
	e, err := NewEngine(l, p, append(opts, withIndexPeak(peak))...)
	if err != nil {
		t.Fatalf("NewEngine(%s): %v", p.Name(), err)
	}
	defer e.Close()
	return stepRoutes(t, e)
}

// stepRoutes steps e to the end of its run and reports how many
// dispatching events (arrivals and retries) the index was up for; only
// those decisions can have been answered by it.
func stepRoutes(t *testing.T, e *Engine) (*Result, int) {
	t.Helper()
	indexed := 0
	for {
		rec, ok, err := e.Step()
		if err != nil {
			t.Fatalf("%s: Step: %v", e.Policy().Name(), err)
		}
		if !ok {
			break
		}
		if e.idx != nil && (rec.Class == EventArrival || rec.Class == EventRetry) {
			indexed++
		}
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatalf("%s: Finish: %v", e.Policy().Name(), err)
	}
	return res, indexed
}

// requireIndexed fails the test when a policy that takes the index at d ran
// no decision on it, which would leave the index side of a differential
// suite untested.
func requireIndexed(t *testing.T, p Policy, d, indexed int, what string) {
	t.Helper()
	if ip, ok := p.(IndexedPolicy); ok && ip.indexedAt(d) && indexed == 0 {
		t.Errorf("%s d=%d %s: the bin index answered no decision", p.Name(), d, what)
	}
}

// TestIndexedSelectMatchesLinearScan is the core bit-identity contract of
// DESIGN.md §11: for every policy and instance, the default engine path
// (the bin index for Best/Worst Fit, the held open-load totals for
// AdaptiveHybrid, the policy's own scan for the rest) and the
// WithLinearSelect scan produce byte-identical results — identical
// placements, bins, cost, and counters. The index is built once the fleet
// has reached 8 open bins, so each run scans first and then takes the
// index, and the index must answer some of its decisions.
func TestIndexedSelectMatchesLinearScan(t *testing.T) {
	for seed := int64(400); seed < 406; seed++ {
		for _, d := range []int{1, 2, 5} {
			l := randomList(seed, 300, d, 25)
			for _, name := range policyNamesWith(t) {
				want := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, seed), WithLinearSelect()))
				p := newPolicyT(t, name, seed)
				res, indexed := simulateRoutes(t, l, p, 8)
				if got := resultJSON(t, res); got != want {
					t.Errorf("%s seed=%d d=%d: indexed result diverges from linear scan", name, seed, d)
				}
				requireIndexed(t, p, d, indexed, "clean run")
			}
		}
	}
}

// TestIndexedSelectMatchesLinearScanUnderFaults extends the bit-identity
// contract to the failure paths: crashes evict items mid-run, retries
// re-dispatch them, admission is capped with a wait queue — and the indexed
// engine must still follow the linear scan decision for decision. The cap
// holds the fleet at 3 bins, so the index is built once it has reached 2.
func TestIndexedSelectMatchesLinearScanUnderFaults(t *testing.T) {
	for seed := int64(500); seed < 505; seed++ {
		for _, d := range []int{1, 2, 5} {
			l := randomList(seed, 250, d, 20)
			for _, name := range policyNamesWith(t) {
				want := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, seed),
					append(faultyOpts(), WithLinearSelect())...))
				p := newPolicyT(t, name, seed)
				res, indexed := simulateRoutes(t, l, p, 2, faultyOpts()...)
				if got := resultJSON(t, res); got != want {
					t.Errorf("%s seed=%d d=%d: indexed result diverges from linear scan under faults", name, seed, d)
				}
				requireIndexed(t, p, d, indexed, "run under faults")
			}
		}
	}
}

// TestIndexedSelectMatchesLinearAcrossRestore closes the loop with the
// persistence layer: an indexed engine snapshotted mid-run and restored into
// a fresh engine (index rebuilt from the snapshot, never serialised) must
// finish with the same result as an uninterrupted linear-scan run. The
// index is built once the fleet has reached 2 bins, so the later cuts land
// after the build.
func TestIndexedSelectMatchesLinearAcrossRestore(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		l := randomList(600, 200, d, 20)
		for _, name := range policyNamesWith(t) {
			want := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, 600), WithLinearSelect()))
			opts := []Option{withIndexPeak(2)}

			for _, cut := range []int{0, 1, 37, 150} {
				e, err := NewEngine(l, newPolicyT(t, name, 600), opts...)
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
				re, err := RestoreEngine(l, newPolicyT(t, name, 999), s, opts...)
				if err != nil {
					t.Fatalf("%s d=%d: RestoreEngine at %d: %v", name, d, cut, err)
				}
				res, indexed := stepRoutes(t, re)
				if got := resultJSON(t, res); got != want {
					t.Errorf("%s d=%d: restored-at-%d indexed run diverges from linear scan", name, d, cut)
				}
				requireIndexed(t, re.Policy(), d, indexed, "restored run")
			}
		}
	}
}

// TestIndexedAuditOracle arms the per-decision oracle: under WithAudit the
// engine re-derives every fast-path decision with the policy's own scan,
// re-validates the store's structural invariants and checks the held
// open-load totals against a fresh sum after every mutation, so a single
// run per policy sweeps thousands of equivalence checks. Crashes are on, so
// crash closes and evictions are among the audited mutations. The index is
// built once the fleet has reached 8 bins.
func TestIndexedAuditOracle(t *testing.T) {
	for seed := int64(700); seed < 703; seed++ {
		for _, d := range []int{1, 2, 5} {
			l := randomList(seed, 300, d, 25)
			for _, name := range policyNamesWith(t) {
				var a Audit
				p := newPolicyT(t, name, seed)
				_, indexed := simulateRoutes(t, l, p, 8, WithAudit(&a), faultyOpts()[0])
				requireIndexed(t, p, d, indexed, "audited run")
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
// one of those decisions against the linear scan. The fleet never holds
// more than one bin, so the index is built from a peak of 1.
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
		p := newPolicyT(t, name, 1)
		res, indexed := simulateRoutes(t, l, p, 1, WithAudit(&a), WithFaults(traceInj{0: 4}, nil))
		if res.Crashes != 1 || res.Evictions != 3 || res.Retries != 3 || res.ItemsLost != 0 {
			t.Fatalf("%s: counters: crashes=%d evictions=%d retries=%d lost=%d",
				name, res.Crashes, res.Evictions, res.Retries, res.ItemsLost)
		}
		requireIndexed(t, p, l.Dim, indexed, "crash-retry run")
		want := resultJSON(t, mustSimulate(t, l, newPolicyT(t, name, 1),
			WithLinearSelect(), WithFaults(traceInj{0: 4}, nil)))
		if got := resultJSON(t, res); got != want {
			t.Errorf("%s: same-event crash-retry result diverges from linear scan", name)
		}
	}
}

// fullFleetList returns n items that each fill a bin in every dimension,
// arriving one per time unit and all still resident when the last arrives,
// so the k-th dispatch leaves the run's peak at k open bins.
func fullFleetList(d, n int) *item.List {
	l := item.NewList(d)
	for k := 0; k < n; k++ {
		l.Add(float64(k), float64(n+10), vector.Uniform(d, 1))
	}
	return l
}

// indexedAfter steps e through its first n events (the dispatches of a
// fullFleetList) and reports, after each, whether the bin index is built.
func indexedAfter(t *testing.T, e *Engine, n int) []bool {
	t.Helper()
	built := make([]bool, n)
	for k := range built {
		if _, ok, err := e.Step(); err != nil || !ok {
			t.Fatalf("%s: Step %d: ok=%v err=%v", e.Policy().Name(), k, ok, err)
		}
		built[k] = e.idx != nil
	}
	return built
}

// TestLinearSelectOptionForcesScan pins WithLinearSelect's contract for both
// fast paths: the engine must build neither the bin index (Worst Fit), not
// even once the fleet has passed indexMinPeak, nor the held totals
// (AdaptiveHybrid), so every decision is the policy's own Select and
// fit-check accounting is its own probe count.
func TestLinearSelectOptionForcesScan(t *testing.T) {
	l := fullFleetList(1, indexMinPeak+2)
	for _, p := range []Policy{NewWorstFit(MaxLoad()), NewAdaptiveHybrid()} {
		fast, err := NewEngine(l, p)
		if err != nil {
			t.Fatal(err)
		}
		if built := indexedAfter(t, fast, l.Len()); !built[l.Len()-1] && fast.totals == nil {
			t.Fatalf("%s: the default engine took no fast path, so this test proves nothing", p.Name())
		}
		fast.Close()
		e, err := NewEngine(l, p, WithLinearSelect())
		if err != nil {
			t.Fatal(err)
		}
		built := indexedAfter(t, e, l.Len())
		if built[l.Len()-1] || e.ixKey != nil || e.tp != nil || e.totals != nil {
			t.Errorf("%s: WithLinearSelect must suppress the bin index and the held totals", p.Name())
		}
		e.Close()
	}
}

// TestSelectPathRouting pins which Select path the engine takes for every
// policy the registry advertises, at d = 1, 2 and 5: for Best Fit at d = 1
// only and for Worst Fit at every d, under every load measure, the scan
// while the run's peak is below indexMinPeak and the bin index from the
// dispatch after the peak reaches it; the held open-load totals for
// AdaptiveHybrid; and the policy's own scan for everything else, at any
// fleet size (DESIGN.md §11 has the measurements behind the rule).
// Parameter placeholders (<p>, <K>) are filled with representative values.
func TestSelectPathRouting(t *testing.T) {
	for _, d := range []int{1, 2, 5} {
		l := fullFleetList(d, indexMinPeak+1)
		for _, line := range PolicySpellings() {
			head := strings.TrimSpace(strings.SplitN(line, "(", 2)[0])
			for _, sp := range strings.Split(head, "|") {
				sp = strings.NewReplacer("<p>", "3", "<K>", "4").Replace(strings.TrimSpace(sp))
				p := newPolicyT(t, sp, 1)
				e, err := NewEngine(l, p)
				if err != nil {
					t.Fatal(err)
				}
				built := indexedAfter(t, e, l.Len())
				var got string
				switch {
				case e.ixKey != nil && e.tp == nil && e.totals == nil:
					// Dispatch k (1-based) leaves the peak at k; the index
					// must appear at the dispatch after the peak reaches
					// indexMinPeak, and not before.
					got = "index"
					for k, b := range built {
						if want := k+1 > indexMinPeak; b != want {
							got = fmt.Sprintf("index built=%v after dispatch %d", b, k+1)
							break
						}
					}
				case e.ixKey == nil && e.tp != nil && e.totals != nil && !built[len(built)-1]:
					got = "totals"
				case e.ixKey == nil && e.tp == nil && e.totals == nil && !built[len(built)-1]:
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

// selectLog records every decision and its fit-check count.
type selectLog struct {
	BaseObserver
	chosen, checks []int
}

// AfterSelect implements SelectObserver.
func (o *selectLog) AfterSelect(_ Request, b *Bin, fitChecks int) {
	id := -1
	if b != nil {
		id = b.ID
	}
	o.chosen = append(o.chosen, id)
	o.checks = append(o.checks, fitChecks)
}

// sizeRuleList crosses indexMinPeak early and then falls back below it:
// indexMinPeak full-size items arrive within the first 0.26 time units and
// leave between t = 1 and 1.6, while 600 random items arrive throughout
// [0, 3) and stay 0.1 to 1.6 time units.
func sizeRuleList(d int, seed int64) *item.List {
	r := rand.New(rand.NewSource(seed))
	l := item.NewList(d)
	for k := 0; k < indexMinPeak; k++ {
		l.Add(float64(k)/1000, 1+float64(k%7)/10, vector.Uniform(d, 1))
	}
	for k := 0; k < 600; k++ {
		a := math.Floor(r.Float64()*3000) / 1000
		size := vector.New(d)
		for j := range size {
			size[j] = float64(1+r.Intn(60)) / 100
		}
		l.Add(a, a+0.1+math.Floor(r.Float64()*1500)/1000, size)
	}
	return l
}

// TestIndexBuildAcrossRestore pins the size rule's restore property: a
// snapshot carries the run's peak open-bin count, so a run restored at any
// event around the dispatch that builds the index, or after the open count
// has fallen back below indexMinPeak, takes the index at the same dispatch
// as the uninterrupted run, makes the same decisions and reports the same
// fit checks for each of them.
func TestIndexBuildAcrossRestore(t *testing.T) {
	for _, tc := range crossoverCases {
		l := sizeRuleList(tc.d, 7)
		var full selectLog
		e, err := NewEngine(l, newPolicyT(t, tc.policy, 1), WithObserver(&full))
		if err != nil {
			t.Fatal(err)
		}
		// selectsBefore[k] is the number of decisions in the first k events.
		selectsBefore := []int{0}
		built, below := -1, -1
		for {
			_, ok, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			selectsBefore = append(selectsBefore, len(full.chosen))
			k := len(selectsBefore) - 1
			if e.idx != nil && built < 0 {
				built = k
			}
			if built >= 0 && below < 0 && len(e.AppendOpenBins(nil)) < indexMinPeak && e.ai < len(e.arrivals) {
				below = k
			}
		}
		want, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if built < 3 || below < 0 {
			t.Fatalf("%s d=%d: index built after event %d, open count back below %d after event %d: the list misses the transition",
				tc.policy, tc.d, built, indexMinPeak, below)
		}
		t.Logf("%s d=%d: index built at event %d, open count below %d after event %d, %d events", tc.policy, tc.d, built, indexMinPeak, below, len(selectsBefore)-1)
		for _, cut := range []int{built - 2, built - 1, built, built + 1, below} {
			e, err := NewEngine(l, newPolicyT(t, tc.policy, 1))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < cut; k++ {
				if _, _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			s, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			e.Close()
			var got selectLog
			re, err := RestoreEngine(l, newPolicyT(t, tc.policy, 1), s, WithObserver(&got))
			if err != nil {
				t.Fatal(err)
			}
			_, res := stepAll(t, re)
			if resultJSON(t, res) != resultJSON(t, want) {
				t.Errorf("%s d=%d: run restored after event %d diverges from the uninterrupted run", tc.policy, tc.d, cut)
			}
			from := selectsBefore[cut]
			if !slices.Equal(got.chosen, full.chosen[from:]) || !slices.Equal(got.checks, full.checks[from:]) {
				t.Errorf("%s d=%d: run restored after event %d reports other decisions or fit checks than the uninterrupted run", tc.policy, tc.d, cut)
			}
		}
	}
}

// TestIndexFitChecksHandComputed pins the fit checks the bin index reports,
// by hand, on Worst Fit at d = 1: items of size 0.6, 0.6, 0.3 and 0.5
// arrive in order and stay. The default path scans a fleet this small and
// tests every open bin: 0, 1, 2 and 2 checks. With the index built from a
// peak of one bin, the first decision still scans (no bin is open, 0
// checks) and the store then counts its own feasibility evaluations. Keys
// are (load, binID), and bin0's priority hash beats bin1's, so bin0 is the
// root whenever both are indexed: 1 (bin0 alone fails), 1 (bin1 keys after
// bin0 at equal load, so bin0's left subtree is empty and bin0 itself
// fits), 1 (bin0 now keys last at 0.9, bin1 at 0.6 sits in its left
// subtree, the 0.5 item's residual bucket mask prunes that subtree in O(1),
// which is not a load evaluation, and bin0 at the root fails).
func TestIndexFitChecksHandComputed(t *testing.T) {
	l := item.NewList(1)
	for k, s := range []float64{0.6, 0.6, 0.3, 0.5} {
		l.Add(float64(k), 10, vector.Of(s))
	}
	for _, tc := range []struct {
		opts []Option
		want []int
	}{
		{nil, []int{0, 1, 2, 2}},
		{[]Option{withIndexPeak(1)}, []int{0, 1, 1, 1}},
	} {
		var log selectLog
		mustSimulate(t, l, NewWorstFit(MaxLoad()), append(tc.opts, WithObserver(&log))...)
		if !slices.Equal(log.checks, tc.want) {
			t.Errorf("fit checks per decision %v, want %v (%d options)", log.checks, tc.want, len(tc.opts))
		}
	}
}

// TestOpenLoadTotalsTrackMutations drives AdaptiveHybrid — the policy whose
// engine path reads the held open-load totals — through every kind of
// open-set mutation: packs into fresh and existing bins, departures, crash
// closes with evictions and retries, migration moves and drains, and
// checkpoint restores. After each of them the held totals must round to
// exactly a fresh vector.Acc sum over the open bins. Only a fault-free,
// non-migrating run snapshots, so the restores get a run of their own.
func TestOpenLoadTotalsTrackMutations(t *testing.T) {
	l := randomList(800, 300, 2, 20)
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
	for _, run := range []struct {
		opts    []Option
		classes []EventClass
		restore bool
	}{
		{
			opts: []Option{
				faultyOpts()[0], // crashes, evictions and retries
				WithMigration(testConsolidator{}, 3, MigrationBudget{MaxMoves: 4}),
			},
			classes: []EventClass{EventArrival, EventDeparture, EventCrash, EventRetry, EventMigration},
		},
		{classes: []EventClass{EventArrival, EventDeparture}, restore: true},
	} {
		e, err := NewEngine(l, NewAdaptiveHybrid(), run.opts...)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[EventClass]int{}
		restores := 0
		for {
			if run.restore && e.EventSeq()%97 == 50 {
				s, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				e.Close()
				if e, err = RestoreEngine(l, NewAdaptiveHybrid(), s); err != nil {
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
		for _, c := range run.classes {
			if seen[c] == 0 {
				t.Errorf("no %s events: the workload misses a mutation site", c)
			}
		}
		if run.restore && restores == 0 {
			t.Error("no restore: the workload misses a mutation site")
		}
		t.Logf("events by class %v, %d restores", seen, restores)
	}
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
