package core

// FirstFit packs an arriving item into the earliest-opened bin that can hold
// it (Section 2.2). Theorem 3 bounds its competitive ratio by (μ+2)d + 1;
// Theorem 5 bounds it below by (μ+1)d.
type FirstFit struct{}

// NewFirstFit returns a First Fit policy.
func NewFirstFit() *FirstFit { return &FirstFit{} }

// Name implements Policy.
func (*FirstFit) Name() string { return "FirstFit" }

// Reset implements Policy. First Fit is stateless: the engine's opening-order
// bin list is exactly the order it scans.
func (*FirstFit) Reset() {}

// Select implements Policy: the lowest-ID (earliest-opened) bin that fits.
func (*FirstFit) Select(req Request, open []*Bin) *Bin {
	if i := first(open, 0, len(open), 1, req.Size); i < len(open) {
		return open[i]
	}
	return nil
}

// OnPack implements Policy.
func (*FirstFit) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*FirstFit) OnClose(*Bin) {}

// LastFit packs an arriving item into the most recently opened bin that can
// hold it — the mirror image of First Fit, included in the paper's
// experimental study (Section 7).
type LastFit struct{}

// NewLastFit returns a Last Fit policy.
func NewLastFit() *LastFit { return &LastFit{} }

// Name implements Policy.
func (*LastFit) Name() string { return "LastFit" }

// Reset implements Policy.
func (*LastFit) Reset() {}

// Select implements Policy: the highest-ID (latest-opened) bin that fits.
func (*LastFit) Select(req Request, open []*Bin) *Bin {
	if i := first(open, len(open)-1, -1, -1, req.Size); i >= 0 {
		return open[i]
	}
	return nil
}

// OnPack implements Policy.
func (*LastFit) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*LastFit) OnClose(*Bin) {}
