package dvbp_test

import (
	"bytes"
	"testing"

	"dvbp"
	"dvbp/internal/analysis"
	"dvbp/internal/core"
	"dvbp/internal/lowerbound"
	"dvbp/internal/offline"
	"dvbp/internal/workload"
)

// TestEndToEndPipeline drives the whole system the way cmd/dvbpbench does:
// generate -> serialise -> reload -> pack under every policy -> bracket OPT
// -> cross-check every invariant between subsystems.
func TestEndToEndPipeline(t *testing.T) {
	cfg := workload.UniformConfig{D: 3, N: 400, Mu: 20, T: 400, B: 100}
	l, err := workload.Uniform(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}

	// Serialise and reload: the replay must be bit-identical.
	var buf bytes.Buffer
	if err := workload.WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	reloaded, err := workload.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	lb := lowerbound.Compute(l)
	up, err := offline.BestUpperEstimate(l)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Best() > up.Cost+1e-9 {
		t.Fatalf("OPT bracket inverted: [%v, %v]", lb.Best(), up.Cost)
	}

	for _, p := range core.StandardPolicies(99) {
		orig, err := core.Simulate(l, p)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := core.Simulate(reloaded, p)
		if err != nil {
			t.Fatal(err)
		}
		if orig.Cost != replay.Cost || orig.BinsOpened != replay.BinsOpened {
			t.Errorf("%s: replay diverged: %v/%d vs %v/%d",
				p.Name(), orig.Cost, orig.BinsOpened, replay.Cost, replay.BinsOpened)
		}
		if orig.Cost < lb.Best()-1e-6 {
			t.Errorf("%s: cost %v below lower bound %v", p.Name(), orig.Cost, lb.Best())
		}
		// Every bound from the theory must hold with the offline certificate.
		mu := l.Mu()
		var bound float64
		switch p.Name() {
		case "MoveToFront":
			bound = (2*mu+1)*float64(cfg.D) + 1
		case "FirstFit":
			bound = (mu+2)*float64(cfg.D) + 1
		case "NextFit":
			bound = 2*mu*float64(cfg.D) + 1
		default:
			continue
		}
		if orig.Cost > bound*up.Cost+1e-6 {
			t.Errorf("%s: cost %v exceeds bound %v * OPTUpper %v", p.Name(), orig.Cost, bound, up.Cost)
		}
	}
}

// TestEndToEndTheoremDecompositions runs the proof instrumentation on a
// realistic workload end to end.
func TestEndToEndTheoremDecompositions(t *testing.T) {
	l, err := workload.Spike(workload.SpikeConfig{
		D: 2, Horizon: 150, BaseRate: 1,
		Spikes: 3, SpikeWidth: 5, SpikeFactor: 6,
		MeanDuration: 6, MinDuration: 1, MaxDuration: 40,
		MaxSize: 0.5,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	mtf := core.NewMoveToFront()
	obs := analysis.NewMTFDecomposition(mtf)
	res, err := core.Simulate(l, mtf, core.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Verify(res); err != nil {
		t.Errorf("Claim 1 on spike workload: %v", err)
	}
	ff, err := core.Simulate(l, core.NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.VerifyFFDecomposition(ff); err != nil {
		t.Errorf("Claim 4 on spike workload: %v", err)
	}
}

// TestEndToEndAdversarialAgainstOfflinePackers: on the Theorem 5 instance the
// offline heuristics should get close to the OPT certificate, confirming the
// certificate is not vacuously loose.
func TestEndToEndAdversarialAgainstOfflinePackers(t *testing.T) {
	in, err := dvbp.TheoremFiveInstance(2, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	up, err := offline.BestUpperEstimate(in.List)
	if err != nil {
		t.Fatal(err)
	}
	// The heuristics won't necessarily find the proof's packing, but they
	// must stay within a small factor of it, and never beat it by more than
	// the certificate's own slack.
	if up.Cost > 5*in.OPTUpper {
		t.Errorf("offline estimate %v far above certificate %v", up.Cost, in.OPTUpper)
	}
	lb := lowerbound.Compute(in.List).Best()
	if up.Cost < lb-1e-9 {
		t.Errorf("offline estimate %v below lower bound %v", up.Cost, lb)
	}
}
