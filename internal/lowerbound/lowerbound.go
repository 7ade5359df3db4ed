package lowerbound

import (
	"math"
	"slices"

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
// The sweep visits arrival/departure points in time order; within a segment
// between consecutive points the active set, and hence the load, is constant.
func IntegralBound(l *item.List) float64 {
	type ev struct {
		t     float64
		delta vector.Vector // +size on arrival, applied before segment
		sign  float64
	}
	events := make([]ev, 0, 2*l.Len())
	for _, it := range l.Items {
		events = append(events,
			ev{t: it.Arrival, delta: it.Size, sign: +1},
			ev{t: it.Departure, delta: it.Size, sign: -1},
		)
	}
	slices.SortFunc(events, func(a, b ev) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		// Departures first: intervals are half-open, so at time t a departing
		// item no longer contributes.
		switch {
		case a.sign < b.sign:
			return -1
		case a.sign > b.sign:
			return 1
		}
		return 0
	})

	load := vector.New(l.Dim)
	active := 0
	total := 0.0
	for i := 0; i < len(events); {
		t := events[i].t
		for i < len(events) && events[i].t == t {
			if events[i].sign > 0 {
				load.AddInPlace(events[i].delta)
				active++
			} else {
				load.SubInPlace(events[i].delta)
				active--
			}
			i++
		}
		if i == len(events) {
			break
		}
		segLen := events[i].t - t
		if segLen <= 0 || active == 0 {
			continue
		}
		need := math.Ceil(load.MaxNorm() - ceilSlack)
		if need < 1 {
			need = 1
		}
		total += need * segLen
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
