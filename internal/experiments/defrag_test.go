package experiments

import (
	"strings"
	"testing"

	"dvbp/internal/migrate"
)

func TestDefragConfigValidate(t *testing.T) {
	if err := DefaultDefrag().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	mig := DefaultDefrag().Migration
	bad := []DefragConfig{
		{D: 0, Instances: 1, Horizon: 10, Migration: mig},
		{D: 2, Instances: 0, Horizon: 10, Migration: mig},
		{D: 2, Instances: 1, Horizon: 0, Migration: mig},
		{D: 2, Instances: 1, Horizon: 10},                                                                     // migration disabled
		{D: 2, Instances: 1, Horizon: 10, Migration: migrate.Config{Planner: "nope", Period: 5, MaxMoves: 8}}, // unknown planner
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestRunDefragDeterminism pins the scheduler contract and the study shape:
// identical results for any Workers value, every cell populated, and the
// migrating leg internally consistent (Mig <= MigTotal, move cost only when
// moves happened).
func TestRunDefragDeterminism(t *testing.T) {
	cfg := DefaultDefrag()
	cfg.Instances = 3
	cfg.Horizon = 40
	run := func(workers int) *DefragStudy {
		c := cfg
		c.Workers = workers
		s, err := RunDefrag(c)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(1), run(4)
	if len(a.Traces) != 3 || len(a.Policies) != len(FragPolicyNames()) {
		t.Fatalf("study shape: %d traces, %d policies", len(a.Traces), len(a.Policies))
	}
	if a.Migration != cfg.Migration.String() {
		t.Fatalf("study migration %q, want %q", a.Migration, cfg.Migration.String())
	}
	totalMoves := 0.0
	for ti := range a.Traces {
		if a.Offline[ti].N != cfg.Instances || a.Offline[ti].Mean < 1 {
			t.Fatalf("offline bracket on %s implausible: %+v", a.Traces[ti], a.Offline[ti])
		}
		if a.Exact[ti].N != 0 {
			t.Fatalf("exact bracket populated without cfg.Exact: %+v", a.Exact[ti])
		}
		for pi := range a.Policies {
			ca, cb := a.Cells[ti][pi], b.Cells[ti][pi]
			if ca != cb {
				t.Fatalf("workers changed cell (%s, %s):\n%+v\nvs\n%+v", ca.Trace, ca.Policy, ca, cb)
			}
			if ca.Base.N != cfg.Instances || ca.Base.Mean < 1 || ca.Mig.Mean < 1 {
				t.Fatalf("cell (%s, %s) implausible: %+v", ca.Trace, ca.Policy, ca)
			}
			if ca.Mig.Mean > ca.MigTotal.Mean+1e-12 {
				t.Fatalf("cell (%s, %s): Mig %v above MigTotal %v", ca.Trace, ca.Policy, ca.Mig.Mean, ca.MigTotal.Mean)
			}
			if ca.Moves.Mean == 0 && ca.MoveCost.Mean != 0 {
				t.Fatalf("cell (%s, %s): move cost without moves: %+v", ca.Trace, ca.Policy, ca)
			}
			totalMoves += ca.Moves.Mean
		}
	}
	if totalMoves == 0 {
		t.Fatal("no policy migrated anything anywhere; the migrating leg is not wired")
	}
	for _, trace := range a.Traces {
		out := a.Table(trace).Render()
		for _, p := range a.Policies {
			if !strings.Contains(out, p) {
				t.Errorf("%s table missing %s", trace, p)
			}
		}
	}
	if a.Chart().SVG() == "" {
		t.Error("empty chart")
	}
}

// TestRunDefragImprovesOnAzure is the study's acceptance property: with the
// default budgeted configuration, at least one policy's migrating leg
// strictly improves mean usage-time or stranded·time over its irrevocable
// baseline on the Azure-like traces, and the migration cost it paid is
// reported alongside.
func TestRunDefragImprovesOnAzure(t *testing.T) {
	cfg := DefaultDefrag()
	cfg.Instances = 4
	cfg.Horizon = 60
	s, err := RunDefrag(cfg)
	if err != nil {
		t.Fatal(err)
	}
	improved := s.Improved("azure")
	if len(improved) == 0 {
		t.Fatal("no policy improved usage-time or stranded·time on the azure traces under budgeted migration")
	}
	ti := s.traceIndex("azure")
	for _, name := range improved {
		for _, c := range s.Cells[ti] {
			if c.Policy != name {
				continue
			}
			if c.Moves.Mean > 0 && c.MoveCost.Mean <= 0 {
				t.Errorf("%s improved via %v moves but reports no migration cost", name, c.Moves.Mean)
			}
		}
	}
}
