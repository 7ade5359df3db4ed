package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dvbp/internal/vector"
)

// fragBin builds an open bin with the given load for direct Select tests.
func fragBin(t *testing.T, id int, load ...float64) *Bin {
	t.Helper()
	b := newBin(id, len(load), 0, nil, nil)
	if err := b.pack(1000+id, vector.Of(load...)); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFragmentationPolicyDecisions pins each score formula with hand-worked
// placements: two bins, one residual-aligned with the item and one not.
func TestFragmentationPolicyDecisions(t *testing.T) {
	// Bin 0 residual (0.1, 0.7): CPU-starved. Bin 1 residual (0.5, 0.4):
	// balanced headroom. The item wants (0.4, 0.1) — CPU-heavy.
	open := []*Bin{fragBin(t, 0, 0.9, 0.3), fragBin(t, 1, 0.5, 0.6)}
	req := Request{ID: 1, Size: vector.Of(0.4, 0.1)}

	// DotProduct: bin0 aligns 0.1·0.4+0.7·0.1 = 0.11; bin1 0.5·0.4+0.4·0.1
	// = 0.24. Bin 1 wins (bin 0 cannot even hold it, but alignment agrees).
	if got := NewDotProduct().Select(req, open); got != open[1] {
		t.Errorf("DotProduct chose bin %v", got)
	}
	// L2Residual: post-residuals bin1 (0.1, 0.3) → 0.10; bin 0 infeasible.
	if got := NewL2Residual().Select(req, open); got != open[1] {
		t.Errorf("L2Residual chose bin %v", got)
	}
	if got := NewFARB().Select(req, open); got != open[1] {
		t.Errorf("FARB chose bin %v", got)
	}

	// Balance discrimination: item (0.2, 0.2) fits both. Bin 0 leaves
	// residual (−) no: bin0 residual (0.1,0.7) can't take 0.2 in dim 0.
	// Use fresh bins: bin 0 residual (0.3, 0.9), bin 1 residual (0.6, 0.6).
	open = []*Bin{fragBin(t, 0, 0.7, 0.1), fragBin(t, 1, 0.4, 0.4)}
	req = Request{ID: 2, Size: vector.Of(0.2, 0.2)}
	// FARB post-residuals: bin0 (0.1, 0.7) spread 0.6; bin1 (0.4, 0.4)
	// spread 0 — bin 1 despite being emptier.
	if got := NewFARB().Select(req, open); got != open[1] {
		t.Errorf("FARB ignored balance, chose bin %v", got)
	}
	// L2Residual: bin0 ‖(0.1,0.7)‖² = 0.50 > bin1 0.32 — bin 1.
	if got := NewL2Residual().Select(req, open); got != open[1] {
		t.Errorf("L2Residual chose bin %v", got)
	}
	// DotProduct: bin0 dot = 0.3·0.2+0.9·0.2 = 0.24 = bin1 0.6·0.2+0.6·0.2.
	// Exact tie — earliest-opened bin wins, the loadfit.go rule.
	if got := NewDotProduct().Select(req, open); got != open[0] {
		t.Errorf("DotProduct tie-break chose bin %v, want earliest", got)
	}
}

// TestAdaptiveHybridRegimes pins the regime switch: balanced+empty clusters
// score by DotProduct, imbalanced ones by FARB, uniformly full ones by Best
// Fit.
func TestAdaptiveHybridRegimes(t *testing.T) {
	ah := NewAdaptiveHybrid()
	cases := []struct {
		name string
		n    int
		tot  vector.Vector
		want int
	}{
		{"balanced low util", 10, vector.Of(3.0, 3.5), hybridModeDot},
		{"imbalanced", 10, vector.Of(2.0, 5.0), hybridModeFARB},
		{"uniformly full", 10, vector.Of(7.0, 7.5), hybridModeBest},
		{"imbalance beats fullness", 10, vector.Of(5.0, 9.0), hybridModeFARB},
		{"d=1 never FARB", 10, vector.Of(9.0), hybridModeBest},
		{"d=1 low util", 10, vector.Of(3.0), hybridModeDot},
	}
	for _, tc := range cases {
		if got := ah.mode(tc.n, tc.tot); got != tc.want {
			t.Errorf("%s: mode %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFragmentationAwareRegistry checks the four policies round-trip through
// the registry under canonical names and aliases.
func TestFragmentationAwareRegistry(t *testing.T) {
	for _, name := range FragmentationAwareNames() {
		p, err := NewPolicy(name, 1)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	for alias, want := range map[string]string{
		"dot": "DotProduct", "DP": "DotProduct",
		"l2": "L2Residual", "farb": "FARB", "BALANCEFIT": "FARB",
		"hybrid": "AdaptiveHybrid", "ah": "AdaptiveHybrid",
	} {
		p, err := NewPolicy(alias, 1)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", alias, err)
		}
		if p.Name() != want {
			t.Errorf("NewPolicy(%q).Name() = %q, want %q", alias, p.Name(), want)
		}
	}
}

// TestConcurrentFragmentationPolicies runs distinct instances of every
// fragmentation-aware policy concurrently on one shared instance list (the
// make-stress race check for AdaptiveHybrid's Select-local scratch) and
// requires all runs of a policy to agree bit-for-bit.
func TestConcurrentFragmentationPolicies(t *testing.T) {
	l := randomList(99, 60, 2, 30)
	for _, name := range FragmentationAwareNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const runs = 8
			var wg sync.WaitGroup
			costs := make([]float64, runs)
			errs := make([]error, runs)
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					p, err := NewPolicy(name, 1)
					if err != nil {
						errs[i] = err
						return
					}
					res, err := Simulate(l, p)
					if err != nil {
						errs[i] = err
						return
					}
					costs[i] = res.Cost
				}(i)
			}
			wg.Wait()
			for i := 0; i < runs; i++ {
				if errs[i] != nil {
					t.Fatalf("run %d: %v", i, errs[i])
				}
				if costs[i] != costs[0] {
					t.Fatalf("run %d cost %v != run 0 cost %v", i, costs[i], costs[0])
				}
			}
		})
	}
}

// TestDotProductLoopMatchesScoredSelect checks DotProduct's d = 2 loop
// against the shared scoredSelect with dotProductScore, the loop every other
// d runs, on random fleets: the same bin and the same fit-check count for
// every request. Loads come from a tenths grid (equal scores, sums that land
// on the capacity), sit exactly on 1+Eps or one ulp over it against the
// request, or repeat an earlier bin's load, with the dimensions swapped when
// the request is symmetric, so equal scores tie. The test requires each of
// those cases to have decided some request, and requests that no bin fits;
// it also runs the d ≠ 2 fallback.
func TestDotProductLoopMatchesScoredSelect(t *testing.T) {
	const limit = 1 + vector.Eps
	r := rand.New(rand.NewSource(9))
	dp := NewDotProduct()
	var scan fitScan
	var exactWins, overBeaten, ties, noneFits int
	for trial := 0; trial < 4000; trial++ {
		d := 2
		if trial%5 == 4 {
			d = []int{1, 3, 5}[r.Intn(3)]
		}
		size := vector.New(d)
		for j := range size {
			size[j] = float64(1+r.Intn(9)) / 10
			if r.Intn(3) == 0 {
				size[j] = 0.01 + 0.9*r.Float64()
			}
		}
		if d == 2 && r.Intn(2) == 0 {
			size[1] = size[0]
		}
		probe := &fitProbe{armed: true}
		open := make([]*Bin, r.Intn(30))
		for i := range open {
			load := vector.New(d)
			switch k := r.Intn(6); {
			case k == 0 && i > 0:
				copy(load, open[r.Intn(i)].load)
				if d == 2 && size[0] == size[1] && r.Intn(2) == 0 {
					load[0], load[1] = load[1], load[0]
				}
			case k <= 2:
				for j := range load {
					load[j] = float64(r.Intn(11)) / 10
				}
			default:
				// One dimension on the capacity against this request, or one
				// ulp over it; the others anywhere.
				for j := range load {
					load[j] = r.Float64()
				}
				j := r.Intn(d)
				load[j] = limit - size[j]
				if load[j]+size[j] != limit {
					load[j] = float64(r.Intn(11)) / 10
				} else if k == 5 {
					load[j] = math.Nextafter(load[j], 2)
				}
			}
			b := newBin(i, d, 0, nil, nil)
			b.probe = probe
			if err := b.pack(i, load); err != nil {
				t.Fatal(err)
			}
			open[i] = b
		}
		req := Request{ID: 1 << 20, Size: size}

		probe.n = 0
		want := scoredSelect(&scan, req, open, dotProductScore)
		wantChecks := probe.n
		probe.n = 0
		got := dp.Select(req, open)
		if got != want || probe.n != wantChecks {
			t.Fatalf("trial %d (d=%d, %d bins, size %v): Select chose %v with %d fit checks, scoredSelect %v with %d",
				trial, d, len(open), size, got, probe.n, want, wantChecks)
		}

		if d != 2 || len(open) == 0 {
			continue
		}
		if want == nil {
			noneFits++
			continue
		}
		best := dotProductScore(req, want)
		for j := range size {
			if want.load[j]+size[j] == limit {
				exactWins++
				break
			}
		}
		for _, b := range open {
			s := dotProductScore(req, b)
			switch {
			case s < best && !b.load.FitsWithin(size):
				if b.load[0]+size[0] > limit && b.load[0]+size[0] == math.Nextafter(limit, 2) ||
					b.load[1]+size[1] > limit && b.load[1]+size[1] == math.Nextafter(limit, 2) {
					overBeaten++
				}
			case s == best && b.ID > want.ID && b.load.FitsWithin(size):
				ties++
			}
		}
	}
	t.Logf("exact-capacity winners %d, ulp-over bins passed over %d, ties %d, no fit %d", exactWins, overBeaten, ties, noneFits)
	if exactWins == 0 || overBeaten == 0 || ties == 0 || noneFits == 0 {
		t.Errorf("a case went untested: exact-capacity winners %d, ulp-over bins passed over %d, ties %d, no fit %d",
			exactWins, overBeaten, ties, noneFits)
	}
}
