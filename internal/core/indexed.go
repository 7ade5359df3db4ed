package core

import (
	"cmp"
	"fmt"
	"slices"

	"dvbp/internal/vector"
)

// binIndex is Worst Fit's bin index: the open bins sorted by (w(bin), ID),
// where w is Worst Fit's load measure. Worst Fit's Select is the first
// entry in that order that fits the item, so a walk from the front that
// stops at the first fitting bin decides exactly as the policy's scan does,
// ties included: the scan keeps the lowest ID among equal loads. The
// emptiest bins fit almost every item, so the walk usually stops after a
// few bins where the scan tests every one.
//
// Each bin carries the key it is filed under (Bin.ixKey), so an entry is
// found by binary search on the key from before a load change. The order is
// total, since bin IDs are unique, so the layout is a pure function of the
// open set: an index built from the open bins equals the one incremental
// upkeep would have produced, and a restored run counts the same fit checks
// as the uninterrupted one.
type binIndex struct {
	key  func(*Bin) float64
	bins []*Bin
}

// newBinIndex files the open bins under key, sorting them once.
func newBinIndex(key func(*Bin) float64, open []*Bin) *binIndex {
	x := &binIndex{key: key, bins: slices.Clone(open)}
	for _, b := range x.bins {
		b.ixKey = key(b)
	}
	slices.SortFunc(x.bins, byKey)
	return x
}

// byKey orders filed bins by (key, ID).
func byKey(a, b *Bin) int {
	return cmp.Or(cmp.Compare(a.ixKey, b.ixKey), cmp.Compare(a.ID, b.ID))
}

// search returns the position of the first entry at or after (key, id).
func (x *binIndex) search(key float64, id int) int {
	lo, hi := 0, len(x.bins)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b := x.bins[m]; b.ixKey < key || (b.ixKey == key && b.ID < id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert files a freshly opened bin.
func (x *binIndex) insert(b *Bin) {
	b.ixKey = x.key(b)
	x.bins = slices.Insert(x.bins, x.search(b.ixKey, b.ID), b)
}

// update re-files b after its load changed: one copy shifts the entries
// between its old and its new position by one.
func (x *binIndex) update(b *Bin) {
	k := x.key(b)
	if k == b.ixKey {
		return
	}
	i, j := x.search(b.ixKey, b.ID), x.search(k, b.ID)
	if j > i {
		j-- // b leaves position i, so everything up to j shifts left
		copy(x.bins[i:j], x.bins[i+1:j+1])
	} else {
		copy(x.bins[j+1:i+1], x.bins[j:i])
	}
	x.bins[j] = b
	b.ixKey = k
}

// remove drops a closed or crashed bin.
func (x *binIndex) remove(b *Bin) {
	i := x.search(b.ixKey, b.ID)
	x.bins = slices.Delete(x.bins, i, i+1)
}

// first returns the first bin in key order that an item of the given size
// fits, or nil, counting one fit check per bin it tests.
func (x *binIndex) first(size vector.Vector) *Bin {
	if k := first(x.bins, 0, len(x.bins), 1, size); k < len(x.bins) {
		return x.bins[k]
	}
	return nil
}

// validate checks the index against the open slice (audit mode), which
// holds live open bins among its tombstones: every open bin appears exactly
// once, in strictly ascending (key, ID) order, under its current key.
// Strict order rules out a repeated entry, so entries that are all open and
// as many as the open bins are each open bin once.
func (x *binIndex) validate(open []*Bin, live int) error {
	if len(x.bins) != live {
		return fmt.Errorf("core: bin index holds %d entries for %d open bins", len(x.bins), live)
	}
	for i, b := range x.bins {
		switch {
		case b.openIdx >= len(open) || open[b.openIdx] != b:
			return fmt.Errorf("core: bin index entry %d is bin %d, which is not open", i, b.ID)
		case b.ixKey != x.key(b):
			return fmt.Errorf("core: bin %d is filed under key %v, its load gives %v", b.ID, b.ixKey, x.key(b))
		case i > 0 && byKey(x.bins[i-1], b) >= 0:
			return fmt.Errorf("core: bin index out of (key, ID) order at entry %d (bin %d)", i, b.ID)
		}
	}
	return nil
}
