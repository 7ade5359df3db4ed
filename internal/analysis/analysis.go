package analysis

import (
	"fmt"
	"math"
	"sort"

	"dvbp/internal/core"
	"dvbp/internal/interval"
)

// LeaderSegment is a maximal interval during which one bin was the Move To
// Front leader. BinID is -1 while no bin is open.
type LeaderSegment struct {
	Interval interval.Interval
	BinID    int
}

// MTFDecomposition is a core.Observer that reconstructs the leader timeline
// of a Move To Front run. Attach with core.WithObserver and pass the SAME
// policy instance that core.Simulate runs.
type MTFDecomposition struct {
	core.BaseObserver
	policy *core.MoveToFront

	times   []float64
	leaders []int
	started bool
}

// NewMTFDecomposition returns an observer bound to the given policy.
func NewMTFDecomposition(p *core.MoveToFront) *MTFDecomposition {
	return &MTFDecomposition{policy: p}
}

func (d *MTFDecomposition) record(t float64) {
	leader := d.policy.LeaderID()
	if d.started && len(d.leaders) > 0 && d.leaders[len(d.leaders)-1] == leader {
		return // no transition
	}
	d.started = true
	d.times = append(d.times, t)
	d.leaders = append(d.leaders, leader)
}

// AfterPack implements core.Observer: packing always moves the receiving bin
// to the front, possibly changing the leader.
func (d *MTFDecomposition) AfterPack(req core.Request, b *core.Bin, opened bool) {
	d.record(req.Arrival)
}

// BinClosed implements core.Observer: when the leader closes, the next bin
// in recency order (or none) becomes leader.
func (d *MTFDecomposition) BinClosed(b *core.Bin, t float64) {
	d.record(t)
}

// Segments returns the leader timeline as maximal constant segments in time
// order.
func (d *MTFDecomposition) Segments() []LeaderSegment {
	var out []LeaderSegment
	for i := range d.times {
		end := math.Inf(1)
		if i+1 < len(d.times) {
			end = d.times[i+1]
		}
		out = append(out, LeaderSegment{Interval: interval.New(d.times[i], end), BinID: d.leaders[i]})
	}
	// The final segment must be a leaderless one at the end of the run
	// (every bin eventually closes), making all real segments finite.
	if n := len(out); n > 0 && out[n-1].BinID == -1 {
		out = out[:n-1]
	}
	return out
}

// LeadingTime returns the total time the given bin spent as leader.
func (d *MTFDecomposition) LeadingTime(binID int) float64 {
	total := 0.0
	for _, s := range d.Segments() {
		if s.BinID == binID {
			total += s.Interval.Length()
		}
	}
	return total
}

// TotalLeadingTime returns Σ_i Σ_j ℓ(P_{i,j}) — the total length of all
// leading intervals, which Claim 1 proves equals span(R).
func (d *MTFDecomposition) TotalLeadingTime() float64 {
	total := 0.0
	for _, s := range d.Segments() {
		if s.BinID >= 0 {
			total += s.Interval.Length()
		}
	}
	return total
}

// NonLeadingCost returns Σ_i Σ_j ℓ(Q_{i,j}) = cost − Σ ℓ(P): the part of
// Move To Front's cost charged to the (2μ+1)d term in Theorem 2.
func (d *MTFDecomposition) NonLeadingCost(res *core.Result) float64 {
	return res.Cost - d.TotalLeadingTime()
}

// Verify checks Claim 1 numerically against the run's Result:
// the leading intervals are disjoint, cover exactly the active span, and
// each bin's leading time is within its usage time.
func (d *MTFDecomposition) Verify(res *core.Result) error {
	segs := d.Segments()
	for i := 1; i < len(segs); i++ {
		if segs[i].Interval.Lo < segs[i-1].Interval.Hi-1e-9 {
			return fmt.Errorf("analysis: overlapping leader segments %v and %v", segs[i-1], segs[i])
		}
	}
	if got := d.TotalLeadingTime(); math.Abs(got-res.Span) > 1e-6 {
		return fmt.Errorf("analysis: Claim 1 violated: Σℓ(P) = %g, span = %g", got, res.Span)
	}
	usage := make(map[int]float64, len(res.Bins))
	for _, b := range res.Bins {
		usage[b.BinID] = b.Usage()
	}
	for id, u := range usage {
		if lt := d.LeadingTime(id); lt > u+1e-6 {
			return fmt.Errorf("analysis: bin %d leading time %g exceeds usage %g", id, lt, u)
		}
	}
	return nil
}

// FFBinDecomposition is the Theorem 3 split of one First Fit bin's usage
// interval I_i into P_i (overlap with earlier bins still open) and Q_i (the
// exclusive tail).
type FFBinDecomposition struct {
	BinID int
	P, Q  interval.Interval
}

// FFDecompose splits each bin of a First Fit result per the Theorem 3 proof:
// with bins indexed by opening time, t_i = max(I_i⁻, max_{j<i} I_j⁺),
// P_i = [I_i⁻, min(I_i⁺, t_i)) and Q_i = [min(I_i⁺, t_i), I_i⁺).
func FFDecompose(res *core.Result) []FFBinDecomposition {
	bins := make([]core.BinUsage, len(res.Bins))
	copy(bins, res.Bins)
	sort.Slice(bins, func(i, j int) bool {
		if bins[i].OpenedAt != bins[j].OpenedAt {
			return bins[i].OpenedAt < bins[j].OpenedAt
		}
		return bins[i].BinID < bins[j].BinID
	})
	out := make([]FFBinDecomposition, 0, len(bins))
	maxCloseBefore := math.Inf(-1)
	for _, b := range bins {
		ti := math.Max(b.OpenedAt, maxCloseBefore)
		mid := math.Min(b.ClosedAt, ti)
		out = append(out, FFBinDecomposition{
			BinID: b.BinID,
			P:     interval.New(b.OpenedAt, mid),
			Q:     interval.New(mid, b.ClosedAt),
		})
		if b.ClosedAt > maxCloseBefore {
			maxCloseBefore = b.ClosedAt
		}
	}
	return out
}

// VerifyFFDecomposition checks Claim 4 numerically: Σ ℓ(Q_i) = span(R), and
// P_i ∪ Q_i tiles each bin's usage interval.
func VerifyFFDecomposition(res *core.Result) error {
	decomp := FFDecompose(res)
	usage := make(map[int]core.BinUsage, len(res.Bins))
	for _, b := range res.Bins {
		usage[b.BinID] = b
	}
	sumQ := 0.0
	for _, d := range decomp {
		b := usage[d.BinID]
		if math.Abs(d.P.Length()+d.Q.Length()-b.Usage()) > 1e-9 {
			return fmt.Errorf("analysis: bin %d decomposition does not tile usage", d.BinID)
		}
		sumQ += d.Q.Length()
	}
	if math.Abs(sumQ-res.Span) > 1e-6 {
		return fmt.Errorf("analysis: Claim 4 violated: Σℓ(Q) = %g, span = %g", sumQ, res.Span)
	}
	return nil
}
