package dvbp_test

import (
	"math"
	"testing"

	"dvbp"
)

func TestQuickstartFlow(t *testing.T) {
	l := dvbp.NewList(2)
	l.Add(0, 10, dvbp.Vec(0.5, 0.25))
	l.Add(1, 4, dvbp.Vec(0.5, 0.5))
	res, err := dvbp.Simulate(l, dvbp.NewMoveToFront())
	if err != nil {
		t.Fatal(err)
	}
	if res.BinsOpened != 1 {
		t.Errorf("BinsOpened = %d, want 1", res.BinsOpened)
	}
	if math.Abs(res.Cost-10) > 1e-9 {
		t.Errorf("Cost = %v, want 10", res.Cost)
	}
	b := dvbp.LowerBounds(l)
	if res.Cost < b.Best()-1e-9 {
		t.Errorf("cost below lower bound")
	}
}

func TestFacadeConstructors(t *testing.T) {
	l := dvbp.NewList(1)
	l.Add(0, 2, dvbp.Vec(0.6))
	l.Add(0, 2, dvbp.Vec(0.6))
	policies := []dvbp.Policy{
		dvbp.NewMoveToFront(), dvbp.NewFirstFit(), dvbp.NewNextFit(),
		dvbp.NewBestFit(), dvbp.NewWorstFit(), dvbp.NewLastFit(), dvbp.NewRandomFit(1),
	}
	for _, p := range policies {
		res, err := dvbp.Simulate(l, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.BinsOpened != 2 {
			t.Errorf("%s: bins = %d, want 2", p.Name(), res.BinsOpened)
		}
	}
	if len(dvbp.PolicyNames()) != 7 || len(dvbp.StandardPolicies(1)) != 7 {
		t.Error("policy registry size mismatch")
	}
	if _, err := dvbp.NewPolicy("mtf", 0); err != nil {
		t.Errorf("NewPolicy: %v", err)
	}
}

func TestFacadeClairvoyant(t *testing.T) {
	l := dvbp.NewList(1)
	l.Add(0, 1, dvbp.Vec(0.4))
	l.Add(0, 64, dvbp.Vec(0.4))
	res, err := dvbp.Simulate(l, dvbp.NewDurationClassFit(), dvbp.WithClairvoyance())
	if err != nil {
		t.Fatal(err)
	}
	if res.BinsOpened != 2 {
		t.Errorf("class separation: bins = %d, want 2", res.BinsOpened)
	}
	if _, err := dvbp.Simulate(l, dvbp.NewAlignedBestFit(), dvbp.WithClairvoyance()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWorkloadAndBracket(t *testing.T) {
	l, err := dvbp.UniformWorkload(dvbp.UniformConfig{D: 2, N: 100, Mu: 10, T: 100, B: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lb := dvbp.LowerBounds(l).Best()
	up, err := dvbp.OfflineBestEstimate(l)
	if err != nil {
		t.Fatal(err)
	}
	if lb > up.Cost+1e-9 {
		t.Errorf("bracket inverted: LB %v > UB %v", lb, up.Cost)
	}
	res, err := dvbp.Simulate(l, dvbp.NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < lb-1e-9 {
		t.Error("online cost below LB")
	}
}

func TestFacadeAdversarial(t *testing.T) {
	in, err := dvbp.TheoremFiveInstance(2, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dvbp.Simulate(in.List, dvbp.NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	if in.MeasuredRatio(res.Cost) <= 1 {
		t.Error("adversarial ratio should exceed 1")
	}
	if _, err := dvbp.TheoremSixInstance(1, 4, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := dvbp.TheoremEightInstance(4, 5); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAudit(t *testing.T) {
	l := dvbp.NewList(1)
	l.Add(0, 1, dvbp.Vec(0.5))
	l.Add(0, 1, dvbp.Vec(0.6))
	var a dvbp.Audit
	if _, err := dvbp.Simulate(l, dvbp.NewFirstFit(), dvbp.WithAudit(&a)); err != nil {
		t.Fatal(err)
	}
	if len(a.Decisions) != 2 || a.NewBinOpenings() != 2 {
		t.Errorf("audit: %d decisions, %d openings", len(a.Decisions), a.NewBinOpenings())
	}
}

func TestFacadeObserver(t *testing.T) {
	var obs countingObserver
	l := dvbp.NewList(1)
	l.Add(0, 2, dvbp.Vec(0.6))
	l.Add(0, 2, dvbp.Vec(0.6))
	res, err := dvbp.Simulate(l, dvbp.NewFirstFit(), dvbp.WithObserver(&obs))
	if err != nil {
		t.Fatal(err)
	}
	if obs.packed != res.Items || res.Items != 2 {
		t.Errorf("observer saw %d placements, Result.Items = %d", obs.packed, res.Items)
	}
}

// countingObserver embeds BaseObserver so it only overrides AfterPack,
// exercising the re-exported facade types.
type countingObserver struct {
	dvbp.BaseObserver
	packed int
}

func (o *countingObserver) AfterPack(dvbp.Request, *dvbp.Bin, bool) { o.packed++ }
