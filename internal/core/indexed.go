package core

import "dvbp/internal/binindex"

// BinIndex is the engine-owned indexed bin store over the open bins (see
// internal/binindex). Once it is built (indexMinPeak), the engine maintains
// it on every open, pack, departure, migration move and close, and answers
// an IndexedPolicy's Select with its leftmost feasible entry.
type BinIndex = binindex.Store[*Bin]

// IndexedPolicy is implemented by the two policies whose Select is a
// load-ordered argmax/argmin — Best Fit and Worst Fit — and which the engine
// therefore serves from the indexed bin store instead of calling Select, in
// the dimensions where the index beats the scan, once the run's peak has
// reached indexMinPeak open bins (unless WithLinearSelect forces the scan).
// The policy supplies only its key: the engine keys every open bin with it,
// and the leftmost feasible entry in key order is the decision. The
// contract, specified in DESIGN.md §11 and enforced by the differential
// suites, is bit-identical decisions:
//
//	leftmost feasible entry under indexKey == Select(req, open)
//
// for every reachable engine state. Every other policy scans: for a key by
// bin ID or recency, or an item-dependent score, the index could only prune
// the scan, and the scan measured faster.
type IndexedPolicy interface {
	Policy
	// indexKey maps an open bin to its composite sort key. It must be a
	// pure function of the bin's load and ID.
	indexKey(b *Bin) (kf float64, ks int64)
	// indexedAt reports whether the engine serves the policy from the index
	// at dimension d, once the run's peak has reached indexMinPeak;
	// otherwise the engine calls its Select, the scan. The rule is fixed by
	// measurement (DESIGN.md §11).
	indexedAt(d int) bool
}

// indexKey implements IndexedPolicy: Best Fit keys by (-w(bin), binID).
// Negating the measure is exact for float64 and order-reversing, so ascending
// key order is descending load; the ID in the low word reproduces the linear
// scan's strictly-greater tie-break (lowest ID among the argmax).
func (bf *BestFit) indexKey(b *Bin) (float64, int64) { return -bf.measure.eval(b), int64(b.ID) }

// indexedAt implements IndexedPolicy: Best Fit is indexed at d = 1 only. At
// d ≥ 2 the residual bucket mask cannot prune bins that are full in
// different dimensions, and the scan is the faster route.
func (*BestFit) indexedAt(d int) bool { return d == 1 }

// indexKey implements IndexedPolicy: Worst Fit keys by (+w(bin), binID) —
// ascending load, ties to the lowest ID (the linear scan's strictly-less
// rule).
func (wf *WorstFit) indexKey(b *Bin) (float64, int64) { return wf.measure.eval(b), int64(b.ID) }

// indexedAt implements IndexedPolicy: Worst Fit is indexed at every d. Its
// leftmost entries are the emptiest bins, which fit almost every item, so
// the index answers in a few steps where the scan must test every bin.
func (*WorstFit) indexedAt(int) bool { return true }
