package core

import (
	"math"
	"strconv"
)

// LoadMeasure maps a bin's load vector to a scalar "how full" value. For
// d = 1 all measures coincide with the load itself; for d ≥ 2 the paper
// (Section 2.2) lists max load (L∞), sum of loads (L1) and Lp-norm loads as
// natural choices for Best Fit.
type LoadMeasure struct {
	name string
	eval func(*Bin) float64
}

// Name returns the measure's identifier ("Linf", "L1", "Lp2", "Lp2.25", ...).
func (m LoadMeasure) Name() string { return m.name }

// Eval applies the measure to a bin.
func (m LoadMeasure) Eval(b *Bin) float64 { return m.eval(b) }

// MaxLoad is w(R) = ‖s(R)‖∞ — the measure used in the paper's experiments
// for Best Fit (Section 7).
func MaxLoad() LoadMeasure {
	return LoadMeasure{name: "Linf", eval: (*Bin).LoadNorm}
}

// SumLoad is w(R) = ‖s(R)‖1.
func SumLoad() LoadMeasure {
	return LoadMeasure{name: "L1", eval: (*Bin).LoadSum}
}

// PNormLoad is w(R) = ‖s(R)‖p for finite p ≥ 1 (p = 1 coincides with
// SumLoad up to naming). p = +Inf is the max norm and maps to MaxLoad()
// explicitly, so the returned measure carries the canonical "Linf" name and
// `BestFit-Lp+Inf` round-trips as plain "BestFit". NaN and p < 1 panic.
//
// The name renders p with the shortest representation that parses back to
// the same float64 (strconv 'g', precision -1): PNormLoad(2.25) is "Lp2.25",
// not a truncated "Lp2.2" that would silently rebuild a different policy via
// NewPolicy(measureName).
func PNormLoad(p float64) LoadMeasure {
	if p < 1 || math.IsNaN(p) {
		panic("core: PNormLoad requires p >= 1")
	}
	if math.IsInf(p, 1) {
		return MaxLoad()
	}
	return LoadMeasure{
		name: "Lp" + strconv.FormatFloat(p, 'g', -1, 64),
		eval: func(b *Bin) float64 { return b.LoadPNorm(p) },
	}
}

// BestFit packs an arriving item into the most-loaded open bin that can hold
// it, under a configurable load measure (Section 2.2). Its competitive ratio
// is unbounded even for d = 1 (Theorem 7, citing Li–Tang–Cai), yet its
// average-case behaviour is close to First Fit (Section 7).
type BestFit struct {
	measure LoadMeasure
	scan    fitScan
}

// NewBestFit returns a Best Fit policy with the given load measure; the
// paper's experiments use MaxLoad().
func NewBestFit(m LoadMeasure) *BestFit { return &BestFit{measure: m} }

// Name implements Policy.
func (bf *BestFit) Name() string {
	if bf.measure.name == "Linf" {
		return "BestFit"
	}
	return "BestFit-" + bf.measure.name
}

// Reset implements Policy.
func (*BestFit) Reset() {}

// Select implements Policy: argmax load among fitting bins; ties break toward
// the earliest-opened bin so runs are deterministic.
func (bf *BestFit) Select(req Request, open []*Bin) *Bin {
	var best *Bin
	bestLoad := math.Inf(-1)
	for _, i := range bf.scan.fitting(open, req.Size) {
		if l := bf.measure.Eval(open[i]); l > bestLoad {
			best, bestLoad = open[i], l
		}
	}
	return best
}

// OnPack implements Policy.
func (*BestFit) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*BestFit) OnClose(*Bin) {}

// WorstFit packs an arriving item into the least-loaded open bin that can
// hold it (Section 7). It spreads load, which the paper observes gives the
// worst average-case cost of the studied family.
type WorstFit struct {
	measure LoadMeasure
	scan    fitScan
}

// NewWorstFit returns a Worst Fit policy with the given load measure.
func NewWorstFit(m LoadMeasure) *WorstFit { return &WorstFit{measure: m} }

// Name implements Policy.
func (wf *WorstFit) Name() string {
	if wf.measure.name == "Linf" {
		return "WorstFit"
	}
	return "WorstFit-" + wf.measure.name
}

// Reset implements Policy.
func (*WorstFit) Reset() {}

// Select implements Policy: argmin load among fitting bins; ties break toward
// the earliest-opened bin.
func (wf *WorstFit) Select(req Request, open []*Bin) *Bin {
	var worst *Bin
	worstLoad := math.Inf(1)
	for _, i := range wf.scan.fitting(open, req.Size) {
		if l := wf.measure.Eval(open[i]); l < worstLoad {
			worst, worstLoad = open[i], l
		}
	}
	return worst
}

// OnPack implements Policy.
func (*WorstFit) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*WorstFit) OnClose(*Bin) {}
