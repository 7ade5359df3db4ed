package experiments

import (
	"strings"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/metrics"
	"dvbp/internal/parallel"
)

func TestFragConfigValidate(t *testing.T) {
	if err := DefaultFrag().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []FragConfig{
		{D: 0, Instances: 1, Horizon: 10},
		{D: 2, Instances: 0, Horizon: 10},
		{D: 2, Instances: 1, Horizon: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestRunFragDeterminism pins the scheduler contract: identical results for
// any Workers value, and every cell populated for every (trace, policy) pair.
func TestRunFragDeterminism(t *testing.T) {
	cfg := DefaultFrag()
	cfg.Instances = 4
	cfg.Horizon = 40
	run := func(workers int) *FragStudy {
		c := cfg
		c.Workers = workers
		s, err := RunFrag(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(1), run(4)
	if len(a.Traces) != 3 || len(a.Policies) != len(FragPolicyNames()) {
		t.Fatalf("study shape: %d traces, %d policies", len(a.Traces), len(a.Policies))
	}
	for ti := range a.Traces {
		for pi := range a.Policies {
			ca, cb := a.Cells[ti][pi], b.Cells[ti][pi]
			if ca.Ratio != cb.Ratio || ca.WastePct != cb.WastePct || ca.Stranded != cb.Stranded {
				t.Fatalf("workers changed cell (%s, %s): %+v vs %+v", ca.Trace, ca.Policy, ca, cb)
			}
			if ca.Ratio.N != cfg.Instances || ca.Ratio.Mean < 1 {
				t.Fatalf("cell (%s, %s) implausible: %+v", ca.Trace, ca.Policy, ca.Ratio)
			}
		}
	}
	// Rendering round-trip: every policy appears in every trace table.
	for _, trace := range a.Traces {
		out := a.Table(trace).Render()
		for _, p := range a.Policies {
			if !strings.Contains(out, p) {
				t.Errorf("%s table missing %s", trace, p)
			}
		}
		if got := a.Ranking(trace); len(got) != len(a.Policies) {
			t.Errorf("%s ranking has %d entries", trace, len(got))
		}
	}
	if a.Chart().SVG() == "" {
		t.Error("empty chart")
	}
}

// TestFragCountsFitChecks pins that a metrics.Collector passed as
// FragConfig.Observer sees every frag run's fit checks as an observer beside
// the run's FragTracker: the count is not zero, and it equals the count of
// the same runs with the collector as their only observer.
func TestFragCountsFitChecks(t *testing.T) {
	cfg := DefaultFrag()
	cfg.Instances, cfg.Horizon = 2, 30
	fitChecks := func(c *metrics.Collector) float64 {
		t.Helper()
		m, ok := c.Snapshot().Find(metrics.MetricFitChecks)
		if !ok {
			t.Fatalf("%s missing", metrics.MetricFitChecks)
		}
		return m.Value
	}
	beside := metrics.NewCollector()
	cfg.Observer = beside
	if _, err := RunFrag(cfg); err != nil {
		t.Fatal(err)
	}
	direct := metrics.NewCollector()
	for i := 0; i < cfg.Instances; i++ {
		seed := parallel.SeedFor(cfg.Seed, i)
		for _, tr := range cfg.fragTraces() {
			l, err := tr.Gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range FragPolicyNames() {
				p, err := core.NewPolicy(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := core.Simulate(l, p, core.WithObserver(direct.ForRun())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	got, want := fitChecks(beside), fitChecks(direct)
	if got == 0 || got != want {
		t.Errorf("frag runs counted %v fit checks beside the FragTracker, %v with the collector alone", got, want)
	}
}

// TestFragFlipsSymmetry checks flip bookkeeping on a crafted study: one pair
// flips, gaps are positive, and the noise gap filters it out when raised.
func TestFragFlipsSymmetry(t *testing.T) {
	s := &FragStudy{
		Traces:   []string{"x", "y"},
		Policies: []string{"P", "Q"},
	}
	mk := func(trace string, rp, rq float64) []FragCell {
		cells := []FragCell{{Trace: trace, Policy: "P"}, {Trace: trace, Policy: "Q"}}
		cells[0].Ratio.Mean = rp
		cells[1].Ratio.Mean = rq
		return cells
	}
	s.Cells = [][]FragCell{mk("x", 1.0, 1.2), mk("y", 1.3, 1.1)}
	flips := s.Flips("x", "y", 0.01)
	if len(flips) != 1 {
		t.Fatalf("flips = %+v, want exactly one", flips)
	}
	fl := flips[0]
	if fl.A != "P" || fl.B != "Q" || fl.GapA <= 0 || fl.GapB <= 0 {
		t.Fatalf("flip %+v, want P over Q with positive gaps", fl)
	}
	if got := s.Flips("x", "y", 0.5); len(got) != 0 {
		t.Fatalf("noise gap 0.5 should filter the flip, got %+v", got)
	}
	if got := s.Flips("x", "nope", 0.01); got != nil {
		t.Fatalf("unknown trace should yield nil, got %+v", got)
	}
}
