package metrics

import (
	"math"

	"dvbp/internal/core"
)

// FragSnapshot is the instantaneous fragmentation state of an open-bin set.
// It is a pure function of the bins' load vectors (FragOf) — independent of
// the event history that produced them — which is what makes the tracker's
// incrementally maintained copy testable against recomputation and invariant
// under event reorderings that reach the same active set.
//
// Per bin, residual_d = 1 − load_d; the usable headroom is min_j residual_j
// (no item larger than that fits in every dimension at once); the stranded
// capacity in dimension d is residual_d − min_j residual_j — headroom that
// exists in d but cannot be packed because some other dimension is binding.
type FragSnapshot struct {
	// OpenBins is the number of open bins observed.
	OpenBins int
	// Load and Stranded are per-dimension totals over the open bins.
	Load     []float64
	Stranded []float64
	// Imbalance is Σ_bins (max_j residual_j − min_j residual_j).
	Imbalance float64
}

// binFrag computes one bin's contribution: its per-dimension stranded
// capacity written into dst, and its residual imbalance returned.
func binFrag(b *core.Bin, dst []float64) float64 {
	usable, maxR := math.Inf(1), math.Inf(-1)
	d := b.Dim()
	for j := 0; j < d; j++ {
		r := 1 - b.LoadAt(j)
		if r < usable {
			usable = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if usable < 0 {
		usable = 0
	}
	for j := 0; j < d; j++ {
		if r := 1 - b.LoadAt(j); r > usable {
			dst[j] = r - usable
		} else {
			dst[j] = 0
		}
	}
	imb := maxR - usable
	if imb < 0 {
		imb = 0
	}
	return imb
}

// FragOf recomputes the fragmentation snapshot of an open-bin set from
// scratch. Nil entries (holes in the engine's open slice) are skipped.
func FragOf(d int, bins []*core.Bin) FragSnapshot {
	s := FragSnapshot{Load: make([]float64, d), Stranded: make([]float64, d)}
	scratch := make([]float64, d)
	for _, b := range bins {
		if b == nil {
			continue
		}
		s.OpenBins++
		s.Imbalance += binFrag(b, scratch)
		for j := 0; j < d; j++ {
			s.Load[j] += b.LoadAt(j)
			s.Stranded[j] += scratch[j]
		}
	}
	return s
}

// fragBinState is one open bin's current contribution to the tracker's
// aggregates, kept so a bin update can be applied as subtract-old/add-new.
type fragBinState struct {
	load     []float64
	stranded []float64
	imb      float64
}

// FragTracker integrates fragmentation over a single simulation run. Attach
// it with core.WithObserver: it maintains a FragSnapshot incrementally (O(d)
// per event) and accrues the time integrals between event timestamps —
// stranded capacity·time per dimension, used and total bin·time, and
// time-weighted residual imbalance, which Current and Summary report. A
// tracker observes one run; construct one per simulation (it is not safe
// for concurrent engines).
//
// The integrals are piecewise-constant sums in plain float64 — telemetry,
// not part of any bit-identity contract. The instantaneous snapshot is the
// contract: Current() must always equal FragOf over the engine's open set
// (up to float64 addition drift), which the property tests enforce.
type FragTracker struct {
	core.BaseObserver

	d     int
	lastT float64
	bins  map[int]*fragBinState

	cur FragSnapshot // incrementally maintained

	binTime      float64
	usedTime     []float64
	strandedTime []float64
	imbTime      float64
}

var (
	_ core.Observer          = (*FragTracker)(nil)
	_ core.DepartureObserver = (*FragTracker)(nil)
	_ core.MigrationObserver = (*FragTracker)(nil)
)

// NewFragTracker returns a tracker for d-dimensional runs.
func NewFragTracker(d int) *FragTracker {
	return &FragTracker{
		d:    d,
		bins: make(map[int]*fragBinState),
		cur: FragSnapshot{
			Load:     make([]float64, d),
			Stranded: make([]float64, d),
		},
		usedTime:     make([]float64, d),
		strandedTime: make([]float64, d),
	}
}

// advance accrues the integrals from the last observed event time to t.
// Event times are nondecreasing within a run, so dt < 0 never happens on the
// engine's callback stream.
func (tr *FragTracker) advance(t float64) {
	dt := t - tr.lastT
	if dt > 0 {
		tr.binTime += float64(tr.cur.OpenBins) * dt
		tr.imbTime += tr.cur.Imbalance * dt
		for j := 0; j < tr.d; j++ {
			tr.usedTime[j] += tr.cur.Load[j] * dt
			tr.strandedTime[j] += tr.cur.Stranded[j] * dt
		}
	}
	tr.lastT = t
}

// upsert installs a bin's fresh contribution, replacing its previous one.
func (tr *FragTracker) upsert(b *core.Bin) {
	st, ok := tr.bins[b.ID]
	if !ok {
		st = &fragBinState{load: make([]float64, tr.d), stranded: make([]float64, tr.d)}
		tr.bins[b.ID] = st
		tr.cur.OpenBins++
	} else {
		tr.cur.Imbalance -= st.imb
		for j := 0; j < tr.d; j++ {
			tr.cur.Load[j] -= st.load[j]
			tr.cur.Stranded[j] -= st.stranded[j]
		}
	}
	st.imb = binFrag(b, st.stranded)
	tr.cur.Imbalance += st.imb
	for j := 0; j < tr.d; j++ {
		st.load[j] = b.LoadAt(j)
		tr.cur.Load[j] += st.load[j]
		tr.cur.Stranded[j] += st.stranded[j]
	}
}

// drop removes a closed bin's contribution.
func (tr *FragTracker) drop(binID int) {
	st, ok := tr.bins[binID]
	if !ok {
		return
	}
	delete(tr.bins, binID)
	tr.cur.OpenBins--
	tr.cur.Imbalance -= st.imb
	for j := 0; j < tr.d; j++ {
		tr.cur.Load[j] -= st.load[j]
		tr.cur.Stranded[j] -= st.stranded[j]
	}
}

// AfterPack implements core.Observer.
func (tr *FragTracker) AfterPack(req core.Request, b *core.Bin, opened bool) {
	tr.advance(req.Arrival)
	tr.upsert(b)
}

// ItemDeparted implements core.DepartureObserver: a departure that leaves
// the bin open changes its residual shape in place.
func (tr *FragTracker) ItemDeparted(itemID int, b *core.Bin, t float64) {
	tr.advance(t)
	tr.upsert(b)
}

// ItemMigrated implements core.MigrationObserver: a consolidation move
// reshapes both bins at the pass instant. A move that drained its source has
// already dropped it through BinClosed (the engine fires the close first), so
// only a source that stayed open is refreshed.
func (tr *FragTracker) ItemMigrated(itemID int, from, to *core.Bin, t, cost float64, drained bool) {
	tr.advance(t)
	tr.upsert(to)
	if !drained {
		tr.upsert(from)
	}
}

// BinClosed implements core.Observer. Crash closes arrive here too, so the
// tracker needs no FailureObserver methods to keep the open set exact.
func (tr *FragTracker) BinClosed(b *core.Bin, t float64) {
	tr.advance(t)
	tr.drop(b.ID)
}

// Current returns the incrementally maintained instantaneous snapshot (the
// slices are copies).
func (tr *FragTracker) Current() FragSnapshot {
	out := tr.cur
	out.Load = append([]float64(nil), tr.cur.Load...)
	out.Stranded = append([]float64(nil), tr.cur.Stranded...)
	return out
}

// FragSummary is the run-level fragmentation account a FragTracker
// accumulates, in the waste/fragmentation terms of the FARB evaluation:
// capacity·time is the resource actually rented (BinTime per dimension),
// UsedTime the part items occupied, FreeTime the rest, and StrandedTime the
// part of FreeTime locked behind a binding dimension.
type FragSummary struct {
	Dim float64 `json:"dim"`
	// Horizon is the time of the last observed event.
	Horizon float64 `json:"horizon"`
	// BinTime is ∫ openBins dt — equal to the usage-time cost once every
	// bin has closed.
	BinTime float64 `json:"bin_time"`
	// UsedTime, FreeTime and StrandedTime are per-dimension integrals:
	// ∫ Σ_bins load_d dt, BinTime − UsedTime_d, and
	// ∫ Σ_bins stranded_d dt respectively.
	UsedTime     []float64 `json:"used_time"`
	FreeTime     []float64 `json:"free_time"`
	StrandedTime []float64 `json:"stranded_time"`
	// WastePct is the fraction of rented capacity·time no item occupied:
	// 100 · Σ_d FreeTime_d / (d · BinTime).
	WastePct float64 `json:"waste_pct"`
	// FragPct is the fraction of the free capacity·time that was stranded:
	// 100 · Σ_d StrandedTime_d / Σ_d FreeTime_d (0 when nothing was free).
	FragPct float64 `json:"frag_pct"`
	// MeanImbalance is the time-weighted mean residual imbalance per open
	// bin: ∫ Σ_bins imbalance dt / BinTime (0 when no bin·time accrued).
	MeanImbalance float64 `json:"mean_imbalance"`
}

// Summary closes out the integrals and returns the run-level account. Call
// it after the run finishes (every bin closed); calling earlier reports the
// integrals up to the last observed event.
func (tr *FragTracker) Summary() FragSummary {
	s := FragSummary{
		Dim:          float64(tr.d),
		Horizon:      tr.lastT,
		BinTime:      tr.binTime,
		UsedTime:     append([]float64(nil), tr.usedTime...),
		StrandedTime: append([]float64(nil), tr.strandedTime...),
		FreeTime:     make([]float64, tr.d),
	}
	freeSum, strandedSum := 0.0, 0.0
	for j := 0; j < tr.d; j++ {
		s.FreeTime[j] = tr.binTime - tr.usedTime[j]
		freeSum += s.FreeTime[j]
		strandedSum += tr.strandedTime[j]
	}
	if tot := float64(tr.d) * tr.binTime; tot > 0 {
		s.WastePct = 100 * freeSum / tot
	}
	if freeSum > 0 {
		s.FragPct = 100 * strandedSum / freeSum
	}
	if tr.binTime > 0 {
		s.MeanImbalance = tr.imbTime / tr.binTime
	}
	return s
}
