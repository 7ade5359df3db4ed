package analysis

import (
	"math"
	"math/rand"
	"testing"

	"dvbp/internal/adversary"
	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
)

func randomList(seed int64, n, d int, maxDur float64) *item.List {
	r := rand.New(rand.NewSource(seed))
	l := item.NewList(d)
	for i := 0; i < n; i++ {
		a := math.Floor(r.Float64() * 100)
		dur := 1 + math.Floor(r.Float64()*maxDur)
		size := vector.New(d)
		for j := range size {
			size[j] = (1 + math.Floor(r.Float64()*100)) / 100
		}
		l.Add(a, a+dur, size)
	}
	return l
}

func runMTF(t *testing.T, l *item.List) (*core.Result, *MTFDecomposition) {
	t.Helper()
	p := core.NewMoveToFront()
	d := NewMTFDecomposition(p)
	res, err := core.Simulate(l, p, core.WithObserver(d))
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

func TestMTFDecompositionSingleBin(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 5, vector.Of(0.5))
	res, d := runMTF(t, l)
	segs := d.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	if segs[0].BinID != 0 || segs[0].Interval.Lo != 0 || segs[0].Interval.Hi != 5 {
		t.Errorf("segment = %+v", segs[0])
	}
	if err := d.Verify(res); err != nil {
		t.Error(err)
	}
	if got := d.NonLeadingCost(res); math.Abs(got) > 1e-9 {
		t.Errorf("NonLeadingCost = %v, want 0", got)
	}
}

func TestMTFDecompositionLeaderHandoff(t *testing.T) {
	// Bin 0 leads on [0,1); bin 1 opens at 1 and leads until its close at 3;
	// bin 0 still holds its item until 5 and resumes leadership on [3,5).
	l := item.NewList(1)
	l.Add(0, 5, vector.Of(0.6)) // bin 0
	l.Add(1, 3, vector.Of(0.6)) // bin 1 (forces new bin, becomes leader)
	res, d := runMTF(t, l)
	if got := d.LeadingTime(0); math.Abs(got-3) > 1e-9 {
		t.Errorf("bin 0 leading time = %v, want 3 ([0,1) and [3,5))", got)
	}
	if got := d.LeadingTime(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("bin 1 leading time = %v, want 2", got)
	}
	if err := d.Verify(res); err != nil {
		t.Error(err)
	}
	// cost = 5 + 2 = 7; leading total = span = 5; non-leading = 2.
	if got := d.NonLeadingCost(res); math.Abs(got-2) > 1e-9 {
		t.Errorf("NonLeadingCost = %v, want 2", got)
	}
}

func TestMTFDecompositionWithGaps(t *testing.T) {
	l := item.NewList(1)
	l.Add(0, 1, vector.Of(0.5))
	l.Add(10, 12, vector.Of(0.5))
	res, d := runMTF(t, l)
	if err := d.Verify(res); err != nil {
		t.Error(err)
	}
	if got := d.TotalLeadingTime(); math.Abs(got-3) > 1e-9 {
		t.Errorf("TotalLeadingTime = %v, want span 3", got)
	}
}

// TestClaim1OnRandomInstances: Σℓ(P) = span(R) across random workloads.
func TestClaim1OnRandomInstances(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		l := randomList(seed, 300, 2, 25)
		res, d := runMTF(t, l)
		if err := d.Verify(res); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestClaim1OnAdversarialInstance: the decomposition also holds on the
// Theorem 8 worst case, where non-leading cost dominates.
func TestClaim1OnAdversarialInstance(t *testing.T) {
	in, err := adversary.Theorem8(16, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, d := runMTF(t, in.List)
	if err := d.Verify(res); err != nil {
		t.Error(err)
	}
	// span = mu = 10; cost = 2n*mu = 320; non-leading = 310.
	if got := d.NonLeadingCost(res); math.Abs(got-310) > 1e-6 {
		t.Errorf("NonLeadingCost = %v, want 310", got)
	}
}

func TestFFDecomposeTheoremExample(t *testing.T) {
	// Bin 0: [0,10); bin 1: [2,12). t_1 = 10, so P_1 = [2,10), Q_1 = [10,12).
	l := item.NewList(1)
	l.Add(0, 10, vector.Of(0.6))
	l.Add(2, 12, vector.Of(0.6))
	res, err := core.Simulate(l, core.NewFirstFit())
	if err != nil {
		t.Fatal(err)
	}
	dec := FFDecompose(res)
	if len(dec) != 2 {
		t.Fatalf("decompositions = %d", len(dec))
	}
	if dec[0].P.Length() != 0 || dec[0].Q.Length() != 10 {
		t.Errorf("bin 0: P=%v Q=%v", dec[0].P, dec[0].Q)
	}
	if math.Abs(dec[1].P.Length()-8) > 1e-9 || math.Abs(dec[1].Q.Length()-2) > 1e-9 {
		t.Errorf("bin 1: P=%v Q=%v", dec[1].P, dec[1].Q)
	}
	if err := VerifyFFDecomposition(res); err != nil {
		t.Error(err)
	}
}

// TestClaim4OnRandomInstances: Σℓ(Q) = span for First Fit results — and
// since the identity is purely geometric (bins sorted by opening), for every
// other policy too.
func TestClaim4OnRandomInstances(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		l := randomList(seed, 300, 2, 25)
		for _, p := range core.StandardPolicies(seed) {
			res, err := core.Simulate(l, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyFFDecomposition(res); err != nil {
				t.Errorf("%s seed %d: %v", p.Name(), seed, err)
			}
		}
	}
}

// TestTheorem2BoundViaDecomposition: the decomposition certifies the
// structure of the Theorem 2 bound on every instance:
// cost = Σℓ(P) + Σℓ(Q) with Σℓ(P) = span ≤ OPT.
func TestTheorem2BoundViaDecomposition(t *testing.T) {
	for seed := int64(20); seed < 25; seed++ {
		l := randomList(seed, 200, 2, 20)
		res, d := runMTF(t, l)
		lead := d.TotalLeadingTime()
		nonLead := d.NonLeadingCost(res)
		if math.Abs(lead+nonLead-res.Cost) > 1e-6 {
			t.Errorf("seed %d: P+Q = %v != cost %v", seed, lead+nonLead, res.Cost)
		}
		if nonLead < -1e-9 {
			t.Errorf("seed %d: negative non-leading cost %v", seed, nonLead)
		}
	}
}
