package metrics

import (
	"math"
	"math/rand"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/faults"
	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// fragAuditObserver forwards every callback to the tracker and, at each
// BeforePack (when the engine guarantees the open slice is compacted and
// every prior event has been applied), cross-checks the incrementally
// maintained snapshot against a from-scratch recomputation. This is the
// history-independence property: whatever event order reached the current
// active set, the metric is a pure function of it.
type fragAuditObserver struct {
	t  *testing.T
	d  int
	tr *FragTracker
}

var (
	_ core.Observer          = (*fragAuditObserver)(nil)
	_ core.DepartureObserver = (*fragAuditObserver)(nil)
)

func (o *fragAuditObserver) BeforePack(req core.Request, open []*core.Bin) {
	o.tr.BeforePack(req, open)
	got := o.tr.Current()
	want := FragOf(o.d, open)
	if got.OpenBins != want.OpenBins {
		o.t.Fatalf("item %d: tracker sees %d open bins, recompute %d", req.ID, got.OpenBins, want.OpenBins)
	}
	const tol = 1e-9
	if math.Abs(got.Imbalance-want.Imbalance) > tol {
		o.t.Fatalf("item %d: tracker imbalance %v, recompute %v", req.ID, got.Imbalance, want.Imbalance)
	}
	for j := 0; j < o.d; j++ {
		if math.Abs(got.Load[j]-want.Load[j]) > tol {
			o.t.Fatalf("item %d: tracker load[%d] %v, recompute %v", req.ID, j, got.Load[j], want.Load[j])
		}
		if math.Abs(got.Stranded[j]-want.Stranded[j]) > tol {
			o.t.Fatalf("item %d: tracker stranded[%d] %v, recompute %v", req.ID, j, got.Stranded[j], want.Stranded[j])
		}
	}
}

func (o *fragAuditObserver) AfterPack(req core.Request, b *core.Bin, opened bool) {
	o.tr.AfterPack(req, b, opened)
}
func (o *fragAuditObserver) BinClosed(b *core.Bin, t float64) { o.tr.BinClosed(b, t) }
func (o *fragAuditObserver) ItemDeparted(itemID int, b *core.Bin, t float64) {
	o.tr.ItemDeparted(itemID, b, t)
}

// fragList builds a random instance with enough churn that bins see
// departures while staying open.
func fragList(seed int64, n, d int) *item.List {
	r := rand.New(rand.NewSource(seed))
	l := item.NewList(d)
	for i := 0; i < n; i++ {
		size := vector.New(d)
		for j := range size {
			size[j] = float64(1+r.Intn(40)) / 100
		}
		arr := float64(r.Intn(200))
		l.Add(arr, arr+1+float64(r.Intn(60)), size)
	}
	return l
}

// TestFragTrackerMatchesRecompute runs the incremental-vs-recompute audit
// over every policy family and several random instances, fault-free and
// crashing.
func TestFragTrackerMatchesRecompute(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			l := fragList(seed, 120, d)
			for _, p := range append(core.StandardPolicies(seed), core.FragmentationAwarePolicies(seed)...) {
				tr := NewFragTracker(d)
				obs := &fragAuditObserver{t: t, d: d, tr: tr}
				if _, err := core.Simulate(l, p, core.WithObserver(obs)); err != nil {
					t.Fatalf("d=%d seed=%d %s: %v", d, seed, p.Name(), err)
				}
				if cur := tr.Current(); cur.OpenBins != 0 {
					t.Fatalf("d=%d seed=%d %s: %d bins still open after Finish", d, seed, p.Name(), cur.OpenBins)
				}
			}
		}
	}
}

// TestFragSummaryHandComputed pins the integrals on a hand-worked run: one
// item of size (0.5, 0.25) alive on [0, 10) in a single bin. All values are
// exact dyadic floats, so the comparisons are equalities.
func TestFragSummaryHandComputed(t *testing.T) {
	l := item.NewList(2)
	l.Add(0, 10, vector.Of(0.5, 0.25))
	tr := NewFragTracker(2)
	if _, err := core.Simulate(l, core.NewFirstFit(), core.WithObserver(tr)); err != nil {
		t.Fatal(err)
	}
	s := tr.Summary()
	check := func(name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("BinTime", s.BinTime, 10)
	check("UsedTime[0]", s.UsedTime[0], 5)
	check("UsedTime[1]", s.UsedTime[1], 2.5)
	check("FreeTime[0]", s.FreeTime[0], 5)
	check("FreeTime[1]", s.FreeTime[1], 7.5)
	// residual (0.5, 0.75), usable 0.5: dim 1 strands 0.25 for 10 units.
	check("StrandedTime[0]", s.StrandedTime[0], 0)
	check("StrandedTime[1]", s.StrandedTime[1], 2.5)
	check("WastePct", s.WastePct, 100*12.5/20)
	check("FragPct", s.FragPct, 100*2.5/12.5)
	check("MeanImbalance", s.MeanImbalance, 0.25)
	check("Horizon", s.Horizon, 10)
}

// TestFragSnapshotReorderInvariant is the event-reordering property: two
// instances whose arrival order is swapped but whose active set at the probe
// time is the same multiset of bin loads must yield bit-identical snapshots.
func TestFragSnapshotReorderInvariant(t *testing.T) {
	a, b := vector.Of(0.75, 0.25), vector.Of(0.5, 0.5)
	run := func(first, second vector.Vector) FragSnapshot {
		l := item.NewList(2)
		// a+b exceeds capacity in dim 0, so First Fit opens two bins
		// whichever arrives first; the active multiset at t=5 is {a, b}
		// either way, split across bins in swapped order.
		l.Add(0, 10, first)
		l.Add(0, 10, second)
		tr := NewFragTracker(2)
		eng, err := core.NewEngine(l, core.NewFirstFit(), core.WithObserver(tr))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for i := 0; i < 2; i++ {
			if _, ok, err := eng.Step(); err != nil || !ok {
				t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
			}
		}
		return tr.Current()
	}
	x, y := run(a, b), run(b, a)
	if x.OpenBins != y.OpenBins || x.Imbalance != y.Imbalance {
		t.Fatalf("reorder changed snapshot: %+v vs %+v", x, y)
	}
	for j := 0; j < 2; j++ {
		if x.Load[j] != y.Load[j] || x.Stranded[j] != y.Stranded[j] {
			t.Fatalf("reorder changed dim %d: %+v vs %+v", j, x, y)
		}
	}
	if x.Stranded[0] == 0 && x.Stranded[1] == 0 {
		t.Fatal("test instance strands nothing; it cannot exercise the invariant")
	}
}

// TestFragTrackerUnderFaults checks the tracker stays consistent when bins
// crash: BinClosed precedes BinCrashed, so the open set never drifts.
func TestFragTrackerUnderFaults(t *testing.T) {
	l := fragList(7, 150, 2)
	tr := NewFragTracker(2)
	obs := &fragAuditObserver{t: t, d: 2, tr: tr}
	_, err := core.Simulate(l, core.NewBestFit(core.MaxLoad()), core.WithObserver(obs),
		core.WithFaults(faults.MTBF{Mean: 40, Seed: 3}, faults.Fixed{Wait: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if cur := tr.Current(); cur.OpenBins != 0 {
		t.Fatalf("%d bins still open after faulty run", cur.OpenBins)
	}
}
