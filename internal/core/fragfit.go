package core

import (
	"math"

	"dvbp/internal/vector"
)

// This file implements the fragmentation-aware policy family (DESIGN.md §13).
// All four policies score fitting bins with an item-dependent function, so —
// unlike Best/Worst Fit — the score cannot be a static index sort key, and
// the engine runs their Select: one ascending scan over the open bins. The
// one engine-side shortcut is AdaptiveHybrid's: the engine holds the exact
// open-load totals its regime switch reads, so it need not re-sum every bin
// on each decision.

// FragmentationAwareNames returns the canonical names of the four
// fragmentation-aware policies in presentation order (the order the
// head-to-head experiment reports them).
func FragmentationAwareNames() []string {
	return []string{"DotProduct", "L2Residual", "FARB", "AdaptiveHybrid"}
}

// FragmentationAwarePolicies returns fresh instances of the four
// fragmentation-aware policies, in FragmentationAwareNames order. The seed
// is accepted for signature symmetry with StandardPolicies; none of the four
// draws randomness.
func FragmentationAwarePolicies(seed int64) []Policy {
	ns := FragmentationAwareNames()
	ps := make([]Policy, 0, len(ns))
	for _, n := range ns {
		p, err := NewPolicy(n, seed)
		if err != nil {
			panic("core: registry inconsistency: " + err.Error())
		}
		ps = append(ps, p)
	}
	return ps
}

// scoredSelect is the shared linear Select of the scored family: the fitting
// bin with the strictly smallest score wins, ties break toward the
// earliest-opened bin (ascending scan + strict '<', the loadfit.go rule).
// scan is the calling policy's scratch.
func scoredSelect(scan *fitScan, req Request, open []*Bin, score func(Request, *Bin) float64) *Bin {
	var best *Bin
	bestScore := math.Inf(1)
	for _, i := range scan.fitting(open, req.Size) {
		if s := score(req, open[i]); s < bestScore {
			best, bestScore = open[i], s
		}
	}
	return best
}

// DotProduct packs an arriving item into the fitting bin whose residual
// capacity vector is best aligned with the item: argmax Σ_j residual_j·size_j
// (Panigrahy et al.'s dot-product heuristic, per the FARB snippets). Large
// demands steer toward bins with matching headroom, which keeps residuals
// balanced across dimensions.
type DotProduct struct{ scan fitScan }

// NewDotProduct returns a DotProduct policy.
func NewDotProduct() *DotProduct { return &DotProduct{} }

// Name implements Policy.
func (*DotProduct) Name() string { return "DotProduct" }

// Reset implements Policy.
func (*DotProduct) Reset() {}

// policyIsStateless marks DotProduct for the §10 snapshot codec: its Select
// is a pure function of the request and the open set.
func (*DotProduct) policyIsStateless() {}

func dotProductScore(req Request, b *Bin) float64 {
	dot := 0.0
	for j, s := range req.Size {
		dot += (1 - b.load[j]) * s
	}
	return -dot // argmax alignment as argmin score
}

// Select implements Policy: argmax residual·size among fitting bins; ties
// break toward the earliest-opened bin. At d = 2 it runs dotProduct2, every
// other d the shared scoredSelect.
func (dp *DotProduct) Select(req Request, open []*Bin) *Bin {
	if len(req.Size) == 2 && len(open) > 0 && len(open[0].load) == 2 {
		return dotProduct2(open, req.Size[0], req.Size[1])
	}
	return scoredSelect(&dp.scan, req, open, dotProductScore)
}

// dotProduct2 is DotProduct's Select at d = 2 in one pass, the third
// d = 2 loop beside policy.go's first and fitting. It scores every bin with
// dotProductScore's expression and runs the fit test only on a bin whose
// score beats the best so far: most bins fit, but few can win. A bin wins
// under the conjunction fitting and scoredSelect apply together (it fits
// and its score is strictly below the best fitting score before it), so the
// choice and its earliest-opened tie-break are scoredSelect's, and the bins
// examined count as fit checks, as in fitting.
func dotProduct2(open []*Bin, s0, s1 float64) *Bin {
	const limit = 1 + vector.Eps
	var best *Bin
	bestScore := math.Inf(1)
	for _, b := range open {
		l := b.load
		_ = l[1]
		dot := 0.0
		dot += (1 - l[0]) * s0
		dot += (1 - l[1]) * s1
		if score := -dot; score < bestScore && !(l[0]+s0 > limit || l[1]+s1 > limit) {
			best, bestScore = b, score
		}
	}
	countFits(open, len(open))
	return best
}

// OnPack implements Policy.
func (*DotProduct) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*DotProduct) OnClose(*Bin) {}

// L2Residual packs an arriving item into the fitting bin that minimises the
// Euclidean norm of the post-placement residual, Σ_j (residual_j − size_j)²
// — Best Fit generalised to "leave the least leftover in all dimensions at
// once" rather than under a single load measure.
type L2Residual struct{ scan fitScan }

// NewL2Residual returns an L2Residual policy.
func NewL2Residual() *L2Residual { return &L2Residual{} }

// Name implements Policy.
func (*L2Residual) Name() string { return "L2Residual" }

// Reset implements Policy.
func (*L2Residual) Reset() {}

// policyIsStateless marks L2Residual for the §10 snapshot codec.
func (*L2Residual) policyIsStateless() {}

func l2ResidualScore(req Request, b *Bin) float64 {
	// The squared norm has the same argmin as the norm and skips the sqrt;
	// both paths compute the identical expression, so the comparison is
	// bit-identical either way.
	sum := 0.0
	for j, s := range req.Size {
		r := 1 - b.load[j] - s
		sum += r * r
	}
	return sum
}

// Select implements Policy: argmin ‖residual − size‖₂ among fitting bins;
// ties break toward the earliest-opened bin.
func (l2 *L2Residual) Select(req Request, open []*Bin) *Bin {
	return scoredSelect(&l2.scan, req, open, l2ResidualScore)
}

// OnPack implements Policy.
func (*L2Residual) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*L2Residual) OnClose(*Bin) {}

// FARB weights for the composite score. Balance dominates (stranding comes
// from dimensional spread), fullness closes bins sooner (the usage-time
// objective), and the L2 term breaks residual-shape ties.
const (
	farbBalanceWeight  = 0.5
	farbFullnessWeight = 0.3
	farbL2Weight       = 0.2
)

// FARB packs an arriving item by a fragmentation-aware balance/fullness
// score in the style of the FARB heuristic (SNIPPETS.md): for the
// post-placement residual r' it minimises
//
//	0.5·(max_j r'_j − min_j r'_j)  +  0.3·mean_j r'_j  +  0.2·‖r'‖₂/√d
//
// i.e. prefer placements that leave residuals dimensionally balanced (low
// spread — nothing stranded), full (low mean residual), and small in norm.
// Every term lies in [0, 1], so the weights express the intended trade-off
// directly.
type FARB struct{ scan fitScan }

// NewFARB returns a FARB policy.
func NewFARB() *FARB { return &FARB{} }

// Name implements Policy.
func (*FARB) Name() string { return "FARB" }

// Reset implements Policy.
func (*FARB) Reset() {}

// policyIsStateless marks FARB for the §10 snapshot codec.
func (*FARB) policyIsStateless() {}

func farbScore(req Request, b *Bin) float64 {
	d := len(req.Size)
	minR, maxR := math.Inf(1), math.Inf(-1)
	sum, sumSq := 0.0, 0.0
	for j, s := range req.Size {
		r := 1 - b.load[j] - s
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
		sum += r
		sumSq += r * r
	}
	fd := float64(d)
	return farbBalanceWeight*(maxR-minR) +
		farbFullnessWeight*(sum/fd) +
		farbL2Weight*math.Sqrt(sumSq/fd)
}

// Select implements Policy: argmin FARB score among fitting bins; ties break
// toward the earliest-opened bin.
func (f *FARB) Select(req Request, open []*Bin) *Bin {
	return scoredSelect(&f.scan, req, open, farbScore)
}

// OnPack implements Policy.
func (*FARB) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*FARB) OnClose(*Bin) {}

// AdaptiveHybrid regime thresholds (see mode): per-bin dimensional load
// spread above hybridImbalance triggers rebalancing; mean fullness above
// hybridHighUtil triggers tight packing.
const (
	hybridImbalance = 0.12
	hybridHighUtil  = 0.65
)

// AdaptiveHybrid switches scoring policy on live cluster state, in the
// spirit of FARB's adaptive mode (SNIPPETS.md): when the cluster's
// per-dimension total loads have drifted apart (stranding risk) it scores
// with FARB to rebalance; when the cluster is uniformly full it scores with
// Best Fit (L∞) to pack tight and release bins; otherwise it scores with
// DotProduct to keep placements aligned. The regime statistics are the exact
// superaccumulator (vector.Acc) sums of the current open-bin loads, so Select
// (a fresh sum over open) and the engine's path (totals the engine keeps up
// to date on every load change) observe bit-identical totals and always pick
// the same regime.
//
// The struct's fields are Select-local scratch, not run state: every
// decision recomputes them from the engine's open set, so the policy is
// semantically stateless (pure function of request + open set) and snapshots
// need no codec. The concurrent-reuse guard protects the scratch.
type AdaptiveHybrid struct {
	acc  []vector.Acc  // scratch: exact per-dimension total-load accumulators
	tot  vector.Vector // scratch: rounded totals
	scan fitScan       // scratch: the fitting bins
}

// NewAdaptiveHybrid returns an AdaptiveHybrid policy.
func NewAdaptiveHybrid() *AdaptiveHybrid { return &AdaptiveHybrid{} }

// Name implements Policy.
func (*AdaptiveHybrid) Name() string { return "AdaptiveHybrid" }

// Reset implements Policy.
func (ah *AdaptiveHybrid) Reset() {
	ah.acc = ah.acc[:0]
	ah.tot = ah.tot[:0]
}

// policyIsStateless marks AdaptiveHybrid for the §10 snapshot codec: its
// fields are per-decision scratch, recomputed from the open set.
func (*AdaptiveHybrid) policyIsStateless() {}

const (
	hybridModeDot = iota
	hybridModeFARB
	hybridModeBest
)

// mode picks the scoring regime from the number of open bins and their exact
// per-dimension total load.
func (*AdaptiveHybrid) mode(n int, tot vector.Vector) int {
	d := len(tot)
	minT, maxT := math.Inf(1), math.Inf(-1)
	sum := 0.0
	for _, t := range tot {
		if t < minT {
			minT = t
		}
		if t > maxT {
			maxT = t
		}
		sum += t
	}
	fn := float64(n)
	if d >= 2 && (maxT-minT)/fn > hybridImbalance {
		return hybridModeFARB
	}
	if sum/(fn*float64(d)) > hybridHighUtil {
		return hybridModeBest
	}
	return hybridModeDot
}

func hybridScore(mode int) func(Request, *Bin) float64 {
	switch mode {
	case hybridModeFARB:
		return farbScore
	case hybridModeBest:
		// Best Fit under MaxLoad as an argmin score; same float64 value the
		// linear BestFit evaluates, negated.
		return func(_ Request, b *Bin) float64 { return -b.load.MaxNorm() }
	default:
		return dotProductScore
	}
}

// totals writes the exact per-dimension sum of the open bins' loads into the
// scratch vector. The load values are the bins' rounded superaccumulator
// outputs, and Acc is order-independent, so any enumeration of the same bin
// multiset yields bit-identical totals.
func (ah *AdaptiveHybrid) totals(d int, open []*Bin) vector.Vector {
	if cap(ah.acc) < d {
		ah.acc = make([]vector.Acc, d)
		ah.tot = vector.New(d)
	}
	ah.acc = ah.acc[:d]
	ah.tot = ah.tot[:d]
	for j := range ah.acc {
		ah.acc[j].Reset()
	}
	for _, b := range open {
		for j, l := range b.load {
			ah.acc[j].Add(l)
		}
	}
	for j := range ah.acc {
		ah.tot[j] = ah.acc[j].Round()
	}
	return ah.tot
}

// Select implements Policy: pick the regime from exact cluster totals, then
// run the regime's scored scan; ties break toward the earliest-opened bin.
func (ah *AdaptiveHybrid) Select(req Request, open []*Bin) *Bin {
	return ah.selectWithTotals(req, open, ah.totals(len(req.Size), open))
}

// selectWithTotals implements totalsPolicy: Select with the open bins'
// per-dimension load totals supplied by the caller. The engine passes the
// totals it holds, which round to the same values Select's fresh sum does.
func (ah *AdaptiveHybrid) selectWithTotals(req Request, open []*Bin, tot vector.Vector) *Bin {
	if len(open) == 0 {
		return nil
	}
	return scoredSelect(&ah.scan, req, open, hybridScore(ah.mode(len(open), tot)))
}

// OnPack implements Policy.
func (*AdaptiveHybrid) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*AdaptiveHybrid) OnClose(*Bin) {}
