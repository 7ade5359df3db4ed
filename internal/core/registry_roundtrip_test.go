package core

import (
	"math"
	"strings"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// roundTripPolicies enumerates every constructible policy shape the registry
// can produce: the seven standard policies, the Best/Worst Fit load-measure
// variants (including non-integer and +Inf p), and HarmonicFit sizes.
func roundTripPolicies(seed int64) []Policy {
	ps := StandardPolicies(seed)
	for _, m := range []LoadMeasure{
		SumLoad(), PNormLoad(1), PNormLoad(2), PNormLoad(2.25), PNormLoad(2.2),
		PNormLoad(3), PNormLoad(10.125), PNormLoad(math.Inf(1)),
	} {
		ps = append(ps, NewBestFit(m), NewWorstFit(m))
	}
	for _, k := range []int{1, 3, 8} {
		ps = append(ps, NewHarmonicFit(k))
	}
	ps = append(ps, FragmentationAwarePolicies(seed)...)
	return ps
}

// TestRegistryRoundTrip is the registry property test: for every
// constructible policy p, NewPolicy(p.Name(), seed) must return a policy with
// the same Name() and identical decisions on a fixed sample trace. This is
// what makes Result.Algorithm a faithful serialisation key — a trace replayed
// from an archived result reconstructs the exact policy that produced it.
func TestRegistryRoundTrip(t *testing.T) {
	const seed = 7
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 400, Mu: 50, T: 200, B: 40}, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range roundTripPolicies(seed) {
		name := p.Name()
		if seen[name] {
			continue // e.g. BestFit-Lp+Inf and BestFit both canonicalise to "BestFit"
		}
		seen[name] = true
		rebuilt, err := NewPolicy(name, seed)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if rebuilt.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, rebuilt.Name())
			continue
		}
		a := mustSimulate(t, l, p)
		b := mustSimulate(t, l, rebuilt)
		resultsEqual(t, "round-trip "+name, a, b)
	}
}

// primePolicy runs a policy through a steady-state prefix: several bins are
// opened and partially loaded via the real OnPack path, so later Select calls
// exercise the primed state (recency lists, class indexes, ...). Returns the
// open slice a Select would receive.
func primePolicy(t *testing.T, p Policy) []*Bin {
	t.Helper()
	p.Reset()
	open := make([]*Bin, 0, 8)
	for i := 0; i < 8; i++ {
		b := newBin(i, 2, 0, nil, nil)
		// Mixed loads so load-driven policies have real argmax/argmin work.
		load := 0.1 + 0.08*float64(i)
		if err := b.pack(1000+i, vector.Of(load, load/2)); err != nil {
			t.Fatal(err)
		}
		b.openIdx = len(open)
		open = append(open, b)
		p.OnPack(Request{ID: 1000 + i, Size: vector.Of(load, load/2)}, b, true)
	}
	return open
}

// TestSelectSteadyStateAllocs pins the hot path: once a run is in steady
// state, Select must not allocate for any of the seven standard policies or
// the four fragmentation-aware ones. This is the regression fence for the
// per-Select map rebuild MoveToFront used to do, for the scan scratch the
// weighing policies keep (fitScan), and for any future policy tempted to
// build scratch state per decision.
func TestSelectSteadyStateAllocs(t *testing.T) {
	for _, p := range append(StandardPolicies(1), FragmentationAwarePolicies(1)...) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			open := primePolicy(t, p)
			req := Request{ID: 5000, Size: vector.Of(0.05, 0.05)}
			// Warm once: lazily-grown internal state (if any) settles here.
			p.Select(req, open)
			allocs := testing.AllocsPerRun(100, func() {
				p.Select(req, open)
			})
			if allocs != 0 {
				t.Errorf("%s.Select allocates %v per call in steady state, want 0", p.Name(), allocs)
			}
		})
	}
}

// TestSimulateSteadyStateEventAllocs pins the engine end to end: on the churn
// family (one pack + one departure per churn item against bins already at k
// active items), the marginal cost of an extra churn item must be
// allocation-free — the whole point of the incremental load accounting and
// scratch reuse. Comparing two run lengths cancels the fixed setup
// allocations (bins, maps, result slices).
func TestSimulateSteadyStateEventAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run")
	}
	const bins, k = 4, 16
	run := func(churn int, p Policy) float64 {
		l := churnHotPathInstance(2, bins, k, churn)
		return testing.AllocsPerRun(10, func() {
			if _, err := Simulate(l, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, name := range []string{"FirstFit", "MoveToFront", "BestFit"} {
		p, err := NewPolicy(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		short := run(64, p)
		long := run(192, p)
		// 128 extra churn items = 256 extra steady-state events. Allow the
		// slack of amortised slice growth (placements, departure queue).
		perEvent := (long - short) / 256
		if perEvent > 0.1 {
			t.Errorf("%s: %.2f allocs per steady-state event (short=%v long=%v), want ~0",
				name, perEvent, short, long)
		}
	}
}

// TestBinOpenCloseSteadyStateAllocs pins what a bin that opens and closes
// costs: every item of size 0.9 arrives after the previous one departed, so
// each opens a bin and closes it again. The closed bin's accumulators and
// item map go to the next bin, so an item's marginal allocations are the Bin
// and its load vector on a static run, plus the size clone AppendArrival
// makes on a dynamic one. As in TestSimulateSteadyStateEventAllocs, the
// difference of two run lengths cancels the setup, and 0.1 per item is left
// for amortised slice and map growth.
func TestBinOpenCloseSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run")
	}
	sequential := func(d, n int) *item.List {
		l := item.NewList(d)
		for i := 0; i < n; i++ {
			l.Add(float64(i), float64(i)+0.5, vector.Uniform(d, 0.9))
		}
		return l
	}
	static := func(l *item.List) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := Simulate(l, NewFirstFit())
			if err != nil || res.BinsOpened != l.Len() {
				t.Fatalf("Simulate: %v (bins %d of %d)", err, res.BinsOpened, l.Len())
			}
		})
	}
	dynamic := func(l *item.List) float64 {
		return testing.AllocsPerRun(5, func() {
			e, err := NewEngine(item.NewList(l.Dim), NewFirstFit(), WithDynamicArrivals())
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range l.Items {
				if _, err := appendAndPlace(e, it); err != nil {
					t.Fatal(err)
				}
			}
			drain(t, e)
		})
	}
	const short, long = 256, 1280
	for _, d := range []int{1, 2, 5} {
		for _, tc := range []struct {
			mode string
			run  func(*item.List) float64
			want float64
		}{{"static", static, 2}, {"dynamic", dynamic, 3}} {
			a, b := tc.run(sequential(d, short)), tc.run(sequential(d, long))
			if per := (b - a) / (long - short); per > tc.want+0.1 {
				t.Errorf("d=%d %s: %.2f allocs per opened and closed bin (short=%v long=%v), want %v",
					d, tc.mode, per, a, b, tc.want)
			}
		}
	}
}

// TestPolicySpellingsAllParse pins the -list help text to the parser: every
// spelling advertised by PolicySpellings must be accepted by NewPolicy, and
// the listing must be sorted by canonical name (the CLI contract since the
// registry gained aliases). Parameter placeholders (<p>, <K>) are checked
// with representative values.
func TestPolicySpellingsAllParse(t *testing.T) {
	lines := PolicySpellings()
	var prev string
	for i, line := range lines {
		head := strings.TrimSpace(strings.SplitN(line, "(", 2)[0])
		var names []string
		for _, f := range strings.Split(head, "|") {
			names = append(names, strings.TrimSpace(f))
		}
		// All lines except the parameterised HarmonicFit tail are sorted by
		// canonical (first) spelling.
		if i < len(lines)-1 {
			if prev != "" && names[0] < prev {
				t.Errorf("spellings out of order: %q after %q", names[0], prev)
			}
			prev = names[0]
		}
		for _, n := range names {
			n = strings.ReplaceAll(n, "<p>", "2.5")
			n = strings.ReplaceAll(n, "<K>", "4")
			if _, err := NewPolicy(n, 1); err != nil {
				t.Errorf("advertised spelling %q rejected: %v", n, err)
			}
		}
	}
	// And every parenthesised extra spelling parses too.
	for _, extra := range []string{"BestFit-L1", "BestFit-Lp3", "WorstFit-L1", "WorstFit-Lp1.5", "HarmonicFit-1"} {
		if _, err := NewPolicy(extra, 1); err != nil {
			t.Errorf("documented form %q rejected: %v", extra, err)
		}
	}
}

// TestRegistryRejectsDuplicateSpellings checks the registration-time guard:
// two rows claiming one spelling (any case) must fail index construction
// instead of silently shadowing each other.
func TestRegistryRejectsDuplicateSpellings(t *testing.T) {
	dup := []policySpec{
		{canonical: "AlphaFit", aliases: []string{"af"}, make: func(int64) Policy { return NewFirstFit() }},
		{canonical: "BetaFit", aliases: []string{"AF"}, make: func(int64) Policy { return NewLastFit() }},
	}
	if _, err := buildSpellingIndex(dup); err == nil {
		t.Fatal("duplicate alias spelling accepted")
	}
	dup[1].aliases = nil
	dup[1].canonical = "alphafit"
	if _, err := buildSpellingIndex(dup); err == nil {
		t.Fatal("duplicate canonical spelling accepted")
	}
	if _, err := buildSpellingIndex(policyTable); err != nil {
		t.Fatalf("real table rejected: %v", err)
	}
	// A row may repeat its own spelling (self-alias); that is deduplicated,
	// not an error.
	self := []policySpec{{canonical: "GammaFit", aliases: []string{"gammafit"}, make: func(int64) Policy { return NewFirstFit() }}}
	if _, err := buildSpellingIndex(self); err != nil {
		t.Fatalf("self-alias rejected: %v", err)
	}
}

// TestPolicySpellingsDeduplicated checks the -list contract the CLIs print:
// no spelling appears twice anywhere in the listing (aliases that restate a
// canonical name are dropped), and no two lines share a canonical name.
func TestPolicySpellingsDeduplicated(t *testing.T) {
	seen := map[string]string{}
	for _, line := range PolicySpellings() {
		head := strings.TrimSpace(strings.SplitN(line, "(", 2)[0])
		for _, f := range strings.Split(head, "|") {
			sp := strings.ToLower(strings.TrimSpace(f))
			if sp == "" {
				t.Errorf("empty spelling in line %q", line)
				continue
			}
			if prev, dup := seen[sp]; dup {
				t.Errorf("spelling %q appears in %q and %q", sp, prev, line)
			}
			seen[sp] = line
		}
	}
}
