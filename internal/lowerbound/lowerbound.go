package lowerbound

import (
	"math"

	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// Bounds carries the three Lemma 1 lower bounds for one instance.
type Bounds struct {
	// Integral is bound (i): ∫ max(1_{active}, ⌈‖s(R,t)‖∞⌉) dt.
	Integral float64
	// Utilization is bound (ii).
	Utilization float64
	// Span is bound (iii).
	Span float64
}

// Best returns the largest (tightest) of the three bounds. By Lemma 1 the
// integral bound dominates, but Best guards against degenerate inputs.
func (b Bounds) Best() float64 {
	return math.Max(b.Integral, math.Max(b.Utilization, b.Span))
}

// Compute returns the three Lemma 1 bounds for the instance.
func Compute(l *item.List) Bounds {
	return Bounds{
		Integral:    IntegralBound(l),
		Utilization: UtilizationBound(l),
		Span:        l.Span(),
	}
}

// IntegralBound computes Lemma 1(i):
//
//	∫ ⌈‖s(R,t)‖∞⌉ dt,
//
// where the integrand is additionally at least 1 whenever some item is active
// (OPT keeps at least one bin open then — this is how (i) subsumes (iii)).
//
// It sorts the list's arrival and departure orders and sweeps them
// (IntegralBoundOf).
func IntegralBound(l *item.List) float64 {
	return IntegralBoundOf(l, l.ArrivalOrder(), l.DepartureOrder())
}

// IntegralBoundOf is IntegralBound over orders the caller already holds, such
// as a core.Instance's (Instance.Orders): arrivals, the indices of l.Items
// by (Arrival, SeqNo), and departures, by (Departure, ID). One sweep merges
// the two. Within a segment between consecutive event instants the active
// set, and hence the load, is constant. At each instant it removes the
// departing items first, in departure order, since intervals are half-open,
// and then adds the arriving ones, in arrival order. Those orders fix the
// order of the float additions, so the same orders give the same bound bit
// for bit.
func IntegralBoundOf(l *item.List, arrivals, departures []int32) float64 {
	items := l.Items
	load := vector.New(l.Dim)
	active := 0
	total := 0.0
	ai, di := 0, 0
	// Every item departs after it arrives, so the departures end the sweep.
	for di < len(departures) {
		t := items[departures[di]].Departure
		if ai < len(arrivals) {
			t = min(t, items[arrivals[ai]].Arrival)
		}
		for ; di < len(departures) && items[departures[di]].Departure == t; di++ {
			load.SubInPlace(items[departures[di]].Size)
			active--
		}
		for ; ai < len(arrivals) && items[arrivals[ai]].Arrival == t; ai++ {
			load.AddInPlace(items[arrivals[ai]].Size)
			active++
		}
		if di == len(departures) {
			break
		}
		next := items[departures[di]].Departure
		if ai < len(arrivals) {
			next = min(next, items[arrivals[ai]].Arrival)
		}
		if active == 0 {
			continue
		}
		need := math.Ceil(load.MaxNorm() - ceilSlack)
		if need < 1 {
			need = 1
		}
		total += need * (next - t)
	}
	return total
}

// ceilSlack absorbs float rounding before the ceiling: a load of 2.0000000001
// arising from summing sizes like 0.2 must count as 2 bins, not 3.
const ceilSlack = 1e-9

// UtilizationBound computes Lemma 1(ii): (1/d)·Σ_r ‖s(r)‖∞·ℓ(I(r)).
func UtilizationBound(l *item.List) float64 {
	if l.Dim == 0 {
		return 0
	}
	return l.TimeSpaceUtilization() / float64(l.Dim)
}

// BinDemandAt returns ⌈‖s(R,t)‖∞⌉ ∨ 1_{active}: the instantaneous minimum
// number of bins any algorithm needs at time t. Exposed for visualisation and
// tests.
func BinDemandAt(l *item.List, t float64) int {
	load := l.LoadAt(t)
	anyActive := false
	for _, it := range l.Items {
		if it.ActiveAt(t) {
			anyActive = true
			break
		}
	}
	if !anyActive {
		return 0
	}
	need := int(math.Ceil(load.MaxNorm() - ceilSlack))
	if need < 1 {
		need = 1
	}
	return need
}
