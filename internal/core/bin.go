package core

import (
	"fmt"
	"sort"

	"dvbp/internal/vector"
)

// Bin is an open server/bin during simulation. Policies receive bins
// read-only: they may inspect load and metadata but must mutate nothing; all
// packing goes through the engine.
type Bin struct {
	// ID numbers bins by opening order, starting at 0. A smaller ID means an
	// earlier opening time (First Fit's order).
	ID int
	// OpenedAt is the time the bin received its first item.
	OpenedAt float64

	// load caches acc rounded to float64 per dimension; refreshed after
	// every pack/remove so read paths stay plain slice loads.
	load vector.Vector
	// acc holds the exact per-dimension sum of the active item sizes. Its
	// state is a pure function of the active multiset (integer limb sums are
	// order-independent and removal cancels exactly), so load — its rounding
	// — is bit-identical across any pack/depart history reaching the same
	// active set. That is the determinism contract load-driven policies
	// (Best/Worst Fit compare loads with exact float comparisons) rely on,
	// previously bought by re-summing all k active items in canonical order
	// on every event; acc makes each event O(d) instead of O(k·log k + k·d).
	acc    []vector.Acc
	active map[int]vector.Vector // item ID -> size, for departure handling
	packed int                   // total items ever packed into this bin

	// openIdx is the bin's current index in the engine's open slice, kept
	// up to date by the engine so closing a bin needs no linear scan.
	openIdx int
	// probe, when armed by the engine around Policy.Select, counts fit
	// checks for the SelectObserver instrumentation seam.
	probe *fitProbe
}

// fitProbe counts fit checks while armed: Bin.Fits evaluations and the bins
// the shared scan loops of policy.go test. The engine shares one probe
// across all of a run's bins and arms it only for the duration of
// Policy.Select, so the engine's own feasibility re-check inside pack is
// never counted.
type fitProbe struct {
	armed bool
	n     int
}

// newBin returns an empty bin. acc and active, when non-nil, are a closed
// bin's zeroed accumulators and emptied item map, taken off the engine's
// spare lists; only what is nil is allocated. The load vector is always
// fresh, because observers may still read a closed bin's load.
func newBin(id int, d int, openedAt float64, acc []vector.Acc, active map[int]vector.Vector) *Bin {
	if acc == nil {
		acc = make([]vector.Acc, d)
	}
	if active == nil {
		active = make(map[int]vector.Vector)
	}
	return &Bin{
		ID:       id,
		OpenedAt: openedAt,
		load:     vector.New(d),
		acc:      acc,
		active:   active,
	}
}

// Load returns the current total size vector of the active items. The
// returned vector is a copy; policies may keep it.
func (b *Bin) Load() vector.Vector { return b.load.Clone() }

// LoadAt returns the bin's load in dimension j without copying — the
// accessor the per-event fragmentation tracker reads through.
func (b *Bin) LoadAt(j int) float64 { return b.load[j] }

// Dim returns the bin's dimension.
func (b *Bin) Dim() int { return len(b.load) }

// LoadNorm returns ‖load‖∞ without allocating.
func (b *Bin) LoadNorm() float64 { return b.load.MaxNorm() }

// LoadSum returns ‖load‖1 without allocating.
func (b *Bin) LoadSum() float64 { return b.load.SumNorm() }

// LoadPNorm returns ‖load‖p without allocating a copy.
func (b *Bin) LoadPNorm(p float64) float64 { return b.load.PNorm(p) }

// Fits reports whether an item of the given size fits in the bin's residual
// capacity in every dimension.
func (b *Bin) Fits(size vector.Vector) bool {
	if b.probe != nil && b.probe.armed {
		b.probe.n++
	}
	return b.load.FitsWithin(size)
}

// ActiveItems returns the number of currently active items.
func (b *Bin) ActiveItems() int { return len(b.active) }

// PackedItems returns the number of items ever packed into the bin.
func (b *Bin) PackedItems() int { return b.packed }

// ActiveItemIDs returns the IDs of the active items in ascending order.
func (b *Bin) ActiveItemIDs() []int {
	return b.appendActiveItemIDs(make([]int, 0, len(b.active)))
}

// appendActiveItemIDs appends the active item IDs to dst in ascending order
// and returns the extended slice. The engine passes a reused scratch slice so
// eviction handling stays allocation-free in steady state.
func (b *Bin) appendActiveItemIDs(dst []int) []int {
	n := len(dst)
	for id := range b.active {
		dst = append(dst, id)
	}
	sort.Ints(dst[n:])
	return dst
}

// Empty reports whether the bin has no active items (and should close).
func (b *Bin) Empty() bool { return len(b.active) == 0 }

func (b *Bin) pack(itemID int, size vector.Vector) error {
	if !b.Fits(size) {
		return fmt.Errorf("bin %d: item %d of size %v does not fit load %v", b.ID, itemID, size, b.load)
	}
	if _, dup := b.active[itemID]; dup {
		return fmt.Errorf("bin %d: item %d already packed", b.ID, itemID)
	}
	b.active[itemID] = size
	b.packed++
	// Ranging over load, not acc: a closed bin's acc is nil (it went to the
	// engine's spare list), so a stale pack or remove that gets this far
	// panics instead of writing into the limbs another bin now owns.
	for j := range b.load {
		b.acc[j].Add(size[j])
		b.load[j] = b.acc[j].Round()
	}
	return nil
}

func (b *Bin) remove(itemID int) error {
	size, ok := b.active[itemID]
	if !ok {
		return fmt.Errorf("bin %d: item %d not active", b.ID, itemID)
	}
	delete(b.active, itemID)
	for j := range b.load {
		b.acc[j].Sub(size[j])
		b.load[j] = b.acc[j].Round()
	}
	return nil
}

// refreshLoadFromActive rebuilds the accumulators and cached load from the
// active map alone. The naive reference implementations use it after editing
// a bin's active set wholesale: because the accumulator state is a pure
// function of the active multiset, the result is bit-identical to the
// engine's incrementally-maintained load.
func (b *Bin) refreshLoadFromActive() {
	for j := range b.acc {
		b.acc[j].Reset()
	}
	for _, size := range b.active {
		for j := range b.acc {
			b.acc[j].Add(size[j])
		}
	}
	for j := range b.acc {
		b.load[j] = b.acc[j].Round()
	}
}

// canonicalLoad re-sums the active item sizes in ascending item-ID order with
// plain float64 addition — the engine's original (pre-incremental)
// definition of a bin's load. The audit seam uses it as an independent
// cross-check: the exact accumulator must agree with this naive canonical sum
// to within its worst-case rounding error.
func (b *Bin) canonicalLoad() vector.Vector {
	ids := b.ActiveItemIDs()
	load := vector.New(b.load.Dim())
	for _, id := range ids {
		load.AddInPlace(b.active[id])
	}
	return load
}

// auditCrossCheckLoad panics if the cached incremental load drifts from the
// naive canonical recompute by more than the naive sum's own error bound —
// (k+1)·ulp-scale per dimension for k active items of size ≤ 1. It runs only
// under WithAudit, where the engine already pays O(k) per decision for
// snapshots, so the O(k·d) recompute does not change the audit cost class.
func (b *Bin) auditCrossCheckLoad() {
	want := b.canonicalLoad()
	tol := float64(len(b.active)+1) * 1e-15
	for j, got := range b.load {
		if diff := got - want[j]; diff > tol || diff < -tol {
			panic(fmt.Sprintf(
				"bin %d: incremental load[%d]=%g drifted from canonical recompute %g (tol %g, %d active)",
				b.ID, j, got, want[j], tol, len(b.active)))
		}
	}
}

// String renders a compact description for debugging.
func (b *Bin) String() string {
	return fmt.Sprintf("bin{id=%d, opened=%g, load=%v, active=%d}", b.ID, b.OpenedAt, b.load, len(b.active))
}
