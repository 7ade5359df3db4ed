package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// testPack packs an item of the given ID and size into a bin built outside
// a run, which keeps its own item list: the item must fit, and the bin
// counts it among its active and packed items as a run's pack does.
func testPack(b *Bin, id int, size vector.Vector) error {
	if !b.Fits(size) {
		return fmt.Errorf("bin %d: item %d of size %v does not fit load %v", b.ID, id, size, b.load)
	}
	if b.list == nil {
		b.list = item.NewList(b.Dim())
	}
	b.list.Items = append(b.list.Items, item.Item{ID: id, Size: size})
	b.items = append(b.items, int32(len(b.list.Items)-1))
	b.packed++
	b.add(size)
	return nil
}

// TestScanLoopsMatchBinFits checks the shared scan loops of policy.go
// against Bin.Fits, bin by bin, on random fleets at d = 1, 2, 3 and 5. Loads
// and sizes sit on a tenths grid, so many sums land on the capacity, and
// sizes are sometimes nudged by half or twice vector.Eps, so some sums land
// just inside or just outside the tolerance. fitScan.fitting must return
// exactly the bins Bin.Fits accepts, first must stop where a Bin.Fits loop
// stops in either direction, and each must count one fit check per bin it
// examines, as Bin.Fits does.
func TestScanLoopsMatchBinFits(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	nudges := []float64{0, 0, -2 * vector.Eps, -vector.Eps / 2, vector.Eps / 2, 2 * vector.Eps}
	tenths := func(d int) vector.Vector {
		v := vector.New(d)
		for j := range v {
			v[j] = math.Min(1, math.Max(0, float64(r.Intn(11))/10+nudges[r.Intn(len(nudges))]))
		}
		return v
	}
	var scan fitScan
	for _, d := range []int{1, 2, 3, 5} {
		for trial := 0; trial < 300; trial++ {
			probe := &fitProbe{armed: true}
			open := make([]*Bin, r.Intn(12))
			for i := range open {
				b := newBin(i, d, 0)
				b.probe = probe
				if err := testPack(b, i, tenths(d)); err != nil {
					t.Fatal(err)
				}
				open[i] = b
			}
			size := tenths(d)
			var want []int
			for i, b := range open {
				if b.Fits(size) {
					want = append(want, i)
				}
			}
			n := len(open)

			probe.n = 0
			if got := scan.fitting(open, size); !slices.Equal(got, want) || probe.n != n {
				t.Fatalf("d=%d trial %d: fitting = %v with %d checks, Bin.Fits accepts %v of %d bins", d, trial, got, probe.n, want, n)
			}

			wantFirst, wantChecks := n, n
			if len(want) > 0 {
				wantFirst, wantChecks = want[0], want[0]+1
			}
			probe.n = 0
			if got := first(open, 0, n, 1, size); got != wantFirst || probe.n != wantChecks {
				t.Fatalf("d=%d trial %d: first forward = %d with %d checks, want %d with %d", d, trial, got, probe.n, wantFirst, wantChecks)
			}

			wantLast, wantChecks := -1, n
			if len(want) > 0 {
				wantLast = want[len(want)-1]
				wantChecks = n - wantLast
			}
			probe.n = 0
			if got := first(open, n-1, -1, -1, size); got != wantLast || probe.n != wantChecks {
				t.Fatalf("d=%d trial %d: first backward = %d with %d checks, want %d with %d", d, trial, got, probe.n, wantLast, wantChecks)
			}
		}
	}
}

// --- First Fit / Last Fit ------------------------------------------------

func TestFirstFitPicksEarliestOpenBin(t *testing.T) {
	// Three long-lived anchors force three bins; then a small item arrives
	// which fits in all three: First Fit must take bin 0, Last Fit bin 2.
	mk := func() [][]float64 {
		return [][]float64{
			{0, 10, 0.6},
			{0, 10, 0.6},
			{0, 10, 0.6},
			{1, 2, 0.2},
		}
	}
	resFF := mustSimulate(t, list(t, 1, mk()...), NewFirstFit())
	if p, _ := resFF.PlacementOf(3); p.BinID != 0 {
		t.Errorf("FirstFit put probe in bin %d, want 0", p.BinID)
	}
	resLF := mustSimulate(t, list(t, 1, mk()...), NewLastFit())
	if p, _ := resLF.PlacementOf(3); p.BinID != 2 {
		t.Errorf("LastFit put probe in bin %d, want 2", p.BinID)
	}
}

func TestFirstFitSkipsFullBins(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 10, 0.9}, // bin 0, nearly full
		[]float64{0, 10, 0.5}, // bin 1
		[]float64{1, 2, 0.3},  // fits only bin 1
	)
	res := mustSimulate(t, l, NewFirstFit())
	if p, _ := res.PlacementOf(2); p.BinID != 1 {
		t.Errorf("probe in bin %d, want 1", p.BinID)
	}
}

// --- Next Fit --------------------------------------------------------------

func TestNextFitSingleCurrentBin(t *testing.T) {
	// Items 0,1 fit together; item 2 doesn't fit with them -> new current
	// bin; item 3 would fit in bin 0 but Next Fit must not look back.
	l := list(t, 1,
		[]float64{0, 10, 0.4},
		[]float64{0, 10, 0.4},
		[]float64{0, 10, 0.4}, // doesn't fit bin 0 (1.2) -> bin 1
		[]float64{0, 10, 0.2}, // fits bin 0, but current is bin 1
	)
	res := mustSimulate(t, l, NewNextFit())
	if res.BinsOpened != 2 {
		t.Fatalf("BinsOpened = %d, want 2", res.BinsOpened)
	}
	if p, _ := res.PlacementOf(3); p.BinID != 1 {
		t.Errorf("NextFit looked back: probe in bin %d, want 1", p.BinID)
	}
}

func TestNextFitReleasedBinNeverReceives(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 100, 0.6}, // bin 0 current
		[]float64{1, 100, 0.6}, // doesn't fit -> bin 1 current, bin 0 released
		[]float64{2, 3, 0.1},   // fits both, must go to bin 1
		[]float64{4, 5, 0.1},   // same
	)
	res := mustSimulate(t, l, NewNextFit())
	for _, id := range []int{2, 3} {
		if p, _ := res.PlacementOf(id); p.BinID != 1 {
			t.Errorf("item %d in bin %d, want 1 (released bins are dead)", id, p.BinID)
		}
	}
}

func TestNextFitCurrentBinClosureResets(t *testing.T) {
	// Current bin closes by departure; next arrival must open a fresh bin
	// even though no rejection happened.
	l := list(t, 1,
		[]float64{0, 1, 0.5}, // bin 0 opens, closes at t=1
		[]float64{2, 3, 0.5}, // arrives after close -> bin 1
	)
	res := mustSimulate(t, l, NewNextFit())
	if res.BinsOpened != 2 {
		t.Fatalf("BinsOpened = %d, want 2", res.BinsOpened)
	}
}

// --- Best Fit / Worst Fit ----------------------------------------------------

func TestBestFitPicksMostLoaded(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 10, 0.7}, // bin 0 at 0.7
		[]float64{0, 10, 0.3}, // fits bin 0 exactly: 0.7+0.3=1.0 -> BF puts in bin 0!
	)
	// Careful: 0.3 fits bin 0. Use sizes so second item opens its own bin.
	res := mustSimulate(t, l, NewBestFit(MaxLoad()))
	if res.BinsOpened != 1 {
		t.Fatalf("BinsOpened = %d (0.7+0.3 should fit one bin)", res.BinsOpened)
	}

	l2 := list(t, 1,
		[]float64{0, 10, 0.7}, // bin 0 at 0.7
		[]float64{0, 10, 0.5}, // doesn't fit -> bin 1 at 0.5
		[]float64{1, 2, 0.2},  // fits both; BF -> bin 0 (0.7), WF -> bin 1 (0.5)
	)
	resBF := mustSimulate(t, l2, NewBestFit(MaxLoad()))
	if p, _ := resBF.PlacementOf(2); p.BinID != 0 {
		t.Errorf("BestFit probe in bin %d, want 0", p.BinID)
	}
	resWF := mustSimulate(t, l2.Clone(), NewWorstFit(MaxLoad()))
	if p, _ := resWF.PlacementOf(2); p.BinID != 1 {
		t.Errorf("WorstFit probe in bin %d, want 1", p.BinID)
	}
}

func TestBestFitLoadMeasuresDiffer(t *testing.T) {
	// Bin 0 load (0.8, 0.0): Linf=0.8, L1=0.8.
	// Bin 1 load (0.5, 0.5): Linf=0.5, L1=1.0.
	// Probe (0.1, 0.1) fits both. BF-Linf -> bin 0; BF-L1 -> bin 1.
	mk := func() [][]float64 {
		return [][]float64{
			{0, 10, 0.8, 0.0},
			{0, 10, 0.5, 0.5}, // conflicts dim0: 0.8+0.5>1 -> bin 1
			{1, 2, 0.1, 0.1},
		}
	}
	resInf := mustSimulate(t, list(t, 2, mk()...), NewBestFit(MaxLoad()))
	if p, _ := resInf.PlacementOf(2); p.BinID != 0 {
		t.Errorf("BF-Linf probe in bin %d, want 0", p.BinID)
	}
	resL1 := mustSimulate(t, list(t, 2, mk()...), NewBestFit(SumLoad()))
	if p, _ := resL1.PlacementOf(2); p.BinID != 1 {
		t.Errorf("BF-L1 probe in bin %d, want 1", p.BinID)
	}
	resL2 := mustSimulate(t, list(t, 2, mk()...), NewBestFit(PNormLoad(2)))
	// ‖(0.8,0)‖2 = 0.8 > ‖(0.5,0.5)‖2 ≈ 0.707 -> bin 0.
	if p, _ := resL2.PlacementOf(2); p.BinID != 0 {
		t.Errorf("BF-L2 probe in bin %d, want 0", p.BinID)
	}
}

func TestBestFitTieBreaksToEarliestBin(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 10, 0.6},
		[]float64{0, 10, 0.6},
		[]float64{1, 2, 0.2},
	)
	res := mustSimulate(t, l, NewBestFit(MaxLoad()))
	if p, _ := res.PlacementOf(2); p.BinID != 0 {
		t.Errorf("tie-break: probe in bin %d, want 0", p.BinID)
	}
}

// --- Move To Front ---------------------------------------------------------

func TestMoveToFrontPrefersRecentlyUsedBin(t *testing.T) {
	// Bins 0 and 1 both fit the probe. Bin 1 was used most recently (it was
	// opened last), so MTF packs there; FF would pick bin 0.
	l := list(t, 1,
		[]float64{0, 10, 0.6}, // bin 0
		[]float64{1, 10, 0.6}, // bin 1 (most recent)
		[]float64{2, 3, 0.2},  // probe
	)
	res := mustSimulate(t, l, NewMoveToFront())
	if p, _ := res.PlacementOf(2); p.BinID != 1 {
		t.Errorf("MTF probe in bin %d, want 1", p.BinID)
	}
}

func TestMoveToFrontUpdatesLeaderOnPack(t *testing.T) {
	// After packing the probe into bin 1, bin 1 stays leader; pack into bin 0
	// only possible when bin 1 full. Then bin 0 becomes leader and receives
	// the following probe.
	l := list(t, 1,
		[]float64{0, 100, 0.5}, // bin 0
		[]float64{1, 100, 0.7}, // bin 1, leader
		[]float64{2, 100, 0.4}, // fits only bin 0 (bin1 at 0.7+0.4>1) -> bin 0 becomes leader
		[]float64{3, 4, 0.05},  // fits both; leader bin 0 takes it
	)
	res := mustSimulate(t, l, NewMoveToFront())
	if p, _ := res.PlacementOf(3); p.BinID != 0 {
		t.Errorf("probe in bin %d, want leader bin 0", p.BinID)
	}
}

func TestMoveToFrontReproducesTheorem8Pattern(t *testing.T) {
	// The Theorem 8 sequence with n=2: 8 items at t=0; odd-indexed size 1/2
	// duration 1; even-indexed size 1/(2n)=1/4 duration mu.
	// MTF creates 2n=4 bins, each holding one odd + one even item.
	const mu = 5.0
	l := item.NewList(1)
	for i := 1; i <= 8; i++ {
		if i%2 == 1 {
			l.Add(0, 1, v(0.5))
		} else {
			l.Add(0, mu, v(0.25))
		}
	}
	res := mustSimulate(t, l, NewMoveToFront())
	if res.BinsOpened != 4 {
		t.Fatalf("BinsOpened = %d, want 2n = 4", res.BinsOpened)
	}
	if res.Cost != 4*mu {
		t.Errorf("Cost = %v, want %v", res.Cost, 4*mu)
	}
}

// --- Random Fit --------------------------------------------------------------

func TestRandomFitIsAnyFit(t *testing.T) {
	// With one open bin that fits, RandomFit must use it (never opens).
	l := list(t, 1,
		[]float64{0, 10, 0.3},
		[]float64{1, 2, 0.3},
		[]float64{3, 4, 0.3},
	)
	res := mustSimulate(t, l, NewRandomFit(1))
	if res.BinsOpened != 1 {
		t.Errorf("BinsOpened = %d, want 1 (Any Fit property)", res.BinsOpened)
	}
}

func TestRandomFitSeedDeterminism(t *testing.T) {
	l := randomList(7, 300, 2, 20)
	a := mustSimulate(t, l, NewRandomFit(5))
	b := mustSimulate(t, l, NewRandomFit(5))
	if a.Cost != b.Cost {
		t.Errorf("same seed, different cost: %v vs %v", a.Cost, b.Cost)
	}
	c := mustSimulate(t, l, NewRandomFit(6))
	// Different seeds *may* coincide but on 300 items it's vanishingly
	// unlikely; treat as smoke test.
	if a.Cost == c.Cost {
		t.Logf("note: different seeds produced same cost %v", a.Cost)
	}
}

func TestRandomFitSpreadsChoices(t *testing.T) {
	// Two bins always fit the probes; over many probes both must be used.
	l := item.NewList(1)
	l.Add(0, 1000, v(0.4)) // bin 0
	l.Add(0, 1000, v(0.4)) // doesn't fit? 0.4+0.4=0.8 fits! Make it bigger.
	res := mustSimulate(t, l, NewRandomFit(1))
	_ = res
	l2 := item.NewList(1)
	l2.Add(0, 1000, v(0.7)) // bin 0
	l2.Add(0, 1000, v(0.7)) // bin 1
	for i := 0; i < 40; i++ {
		a := float64(i + 1)
		l2.Add(a, a+1, v(0.05))
	}
	res2 := mustSimulate(t, l2, NewRandomFit(3))
	used := make(map[int]int)
	for _, p := range res2.Placements[2:] {
		used[p.BinID]++
	}
	if used[0] == 0 || used[1] == 0 {
		t.Errorf("RandomFit never used one of the bins: %v", used)
	}
}

// --- Registry ---------------------------------------------------------------

func TestNewPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, 1)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	aliases := map[string]string{
		"ff": "FirstFit", "nf": "NextFit", "bf": "BestFit", "wf": "WorstFit",
		"lf": "LastFit", "rf": "RandomFit", "mtf": "MoveToFront",
		"bestfit-l1": "BestFit-L1", "bestfit-lp2": "BestFit-Lp2",
		"bestfit-lp2.0": "BestFit-Lp2", "bestfit-lp2.25": "BestFit-Lp2.25",
		"worstfit-lp3": "WorstFit-Lp3", "worstfit-lp3.0": "WorstFit-Lp3",
		// +Inf is the max norm: explicit handling maps it to the canonical
		// Linf measure rather than a distinct "Lp+Inf" spelling.
		"bestfit-lp+inf": "BestFit",
	}
	for alias, want := range aliases {
		p, err := NewPolicy(alias, 1)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", alias, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("NewPolicy(%q).Name() = %q, want %q", alias, p.Name(), want)
		}
	}
	if _, err := NewPolicy("nope", 1); err == nil {
		t.Error("unknown policy: want error")
	}
	if _, err := NewPolicy("bestfit-lp0.5", 1); err == nil {
		t.Error("invalid p: want error")
	}
}

func TestStandardPolicies(t *testing.T) {
	ps := StandardPolicies(1)
	if len(ps) != 7 {
		t.Fatalf("StandardPolicies = %d policies", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name()] {
			t.Errorf("duplicate policy %s", p.Name())
		}
		seen[p.Name()] = true
	}
}

func TestSortedPolicyNames(t *testing.T) {
	ns := SortedPolicyNames()
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("not sorted: %v", ns)
		}
	}
}

func TestPNormLoadPanicsBelow1(t *testing.T) {
	for _, p := range []float64{0.5, 0, -1, math.NaN(), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PNormLoad(%v): want panic", p)
				}
			}()
			PNormLoad(p)
		}()
	}
}

// TestPNormLoadNameRoundTrips pins the Lp naming fix: names carry the exact
// p (no %.1f truncation), so distinct measures never collide and every name
// rebuilds the same measure through the registry.
func TestPNormLoadNameRoundTrips(t *testing.T) {
	cases := map[float64]string{
		1:      "Lp1",
		2:      "Lp2",
		2.2:    "Lp2.2",
		2.25:   "Lp2.25",
		3:      "Lp3",
		10.125: "Lp10.125",
	}
	for p, want := range cases {
		if got := PNormLoad(p).Name(); got != want {
			t.Errorf("PNormLoad(%v).Name() = %q, want %q", p, got, want)
		}
	}
	if PNormLoad(2.25).Name() == PNormLoad(2.2).Name() {
		t.Error("distinct p values collide in the measure name")
	}
	if got := PNormLoad(math.Inf(1)).Name(); got != "Linf" {
		t.Errorf("PNormLoad(+Inf).Name() = %q, want Linf (max norm)", got)
	}
}
