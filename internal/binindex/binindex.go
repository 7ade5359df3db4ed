package binindex

import (
	"fmt"

	"dvbp/internal/vector"
)

// nilNode marks an absent child link in the node arena.
const nilNode int32 = -1

// bucketCount is the resolution of the residual-capacity histogram: bins are
// bucketed by their maximum per-dimension residual into 64 equal slices of
// the unit capacity, one bit each, so a subtree's occupancy is a single
// uint64 OR.
const bucketCount = 64

// maskSlack absorbs the rounding error of computing residuals as 1 - load:
// bucket assignment rounds the residual *up* by this margin so the bucket
// prune stays conservative (never prunes a feasible bin). The slack is far
// above float64 ulp scale and far below vector.Eps, so it cannot flip a
// genuine feasibility decision either way.
const maskSlack = 1e-12

// node is one open bin in the arena. Links are arena indices, not pointers:
// the tree stays compact, nodes recycle through a free list, and the
// per-node load/minLoad slices are reused across generations so steady-state
// churn allocates nothing.
type node[P any] struct {
	// kf/ks form the sort key, compared lexicographically (kf first). Bin
	// IDs make ks unique within every policy's keying discipline.
	kf float64
	ks int64
	// id is the bin ID the engine addresses updates and removals by.
	id      int
	payload P

	// prio is the treap heap priority: a fixed hash of id, so the tree's
	// shape is a pure function of the indexed (key, id) set — independent of
	// the order of inserts, removals and re-keyings that produced it. That
	// history independence is what makes a checkpoint-restore rebuild
	// reproduce not just the store's answers but its exact structure (and
	// hence its per-query feasibility-check counts, which instrumentation
	// reports).
	prio uint64

	left, right int32
	// count is the subtree size (order-statistic augmentation).
	count int32

	// load is this bin's current load vector (a copy owned by the arena).
	load []float64
	// minLoad is the component-wise minimum load over the subtree rooted
	// here (including this node) — the exact feasibility prune.
	minLoad []float64
	// selfMask is this bin's residual bucket bit; mask is the OR over the
	// subtree — the O(1) residual-capacity prune.
	selfMask uint64
	mask     uint64
}

// Store is the indexed bin store: a treap (randomised order-statistic tree
// with deterministic, hash-derived priorities) over open bins in a
// policy-chosen key order, with residual-capacity pruning augmentations.
// The zero Store is not ready to use; construct with New. A Store is not
// safe for concurrent use — like the engine that owns it, it is
// single-goroutine.
type Store[P any] struct {
	d     int
	root  int32
	nodes []node[P]
	free  []int32
	byID  map[int]int32

	// checks counts feasibility evaluations (per-entry fit checks and
	// subtree prune checks) since the last ResetChecks — the quantity the
	// engine reports through the SelectObserver seam.
	checks int
}

// New returns an empty store for d-dimensional loads.
func New[P any](d int) *Store[P] {
	if d < 0 {
		panic("binindex: negative dimension")
	}
	return &Store[P]{d: d, root: nilNode, byID: make(map[int]int32)}
}

// prioOf is the deterministic priority hash (the splitmix64 finaliser). It
// is a bijection on uint64, so distinct bin IDs always get distinct
// priorities and the treap shape is unique.
func prioOf(id int) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Len returns the number of indexed bins.
func (s *Store[P]) Len() int {
	if s.root == nilNode {
		return 0
	}
	return int(s.nodes[s.root].count)
}

// Checks returns the feasibility evaluations performed since the last
// ResetChecks.
func (s *Store[P]) Checks() int { return s.checks }

// ResetChecks zeroes the feasibility-evaluation counter.
func (s *Store[P]) ResetChecks() { s.checks = 0 }

// Insert adds a bin under the given key. It panics if the ID is already
// indexed — the engine inserts every bin exactly once per open.
func (s *Store[P]) Insert(kf float64, ks int64, id int, load vector.Vector, payload P) {
	if _, dup := s.byID[id]; dup {
		panic(fmt.Sprintf("binindex: bin %d already indexed", id))
	}
	n := s.alloc(kf, ks, id, load, payload)
	s.byID[id] = n
	s.root = s.insertRec(s.root, n)
}

// Update refreshes a bin's load and key after a pack, departure or
// migration move. A changed key relocates the node; when the load measure
// the key is built from did not move (a pack below the bin's peak
// dimension under the max norm, say), only the pruning augmentations on the
// root path are recomputed.
func (s *Store[P]) Update(id int, kf float64, ks int64, load vector.Vector) {
	n, ok := s.byID[id]
	if !ok {
		panic(fmt.Sprintf("binindex: update of unindexed bin %d", id))
	}
	nd := &s.nodes[n]
	copy(nd.load, load)
	nd.selfMask = residMask(nd.load)
	if nd.kf == kf && nd.ks == ks {
		s.refreshPath(s.root, kf, ks)
		return
	}
	s.root = s.removeRec(s.root, nd.kf, nd.ks)
	nd.kf, nd.ks = kf, ks
	s.root = s.insertRec(s.root, n)
}

// Remove drops a bin from the index (bin closed or crashed).
func (s *Store[P]) Remove(id int) {
	n, ok := s.byID[id]
	if !ok {
		panic(fmt.Sprintf("binindex: remove of unindexed bin %d", id))
	}
	nd := &s.nodes[n]
	s.root = s.removeRec(s.root, nd.kf, nd.ks)
	delete(s.byID, id)
	var zero P
	nd.payload = zero // release the bin to the GC; slices stay for reuse
	s.free = append(s.free, n)
}

// FirstFeasible returns the first entry in key order whose bin fits an item
// of the given size — for Best and Worst Fit's keys, exactly the bin their
// linear scans choose. ok is false when no indexed bin fits.
func (s *Store[P]) FirstFeasible(size vector.Vector) (P, bool) {
	fm := feasMask(size)
	if n := s.firstFeasible(s.root, size, fm); n != nilNode {
		return s.nodes[n].payload, true
	}
	var zero P
	return zero, false
}

// --- queries ---

// subtreeFeasible reports whether the subtree rooted at n can contain a
// feasible bin: the residual-bucket mask first (O(1), conservative), then
// the component-wise minimum load (O(d), exact: rounding is monotone, so if
// minLoad+size overflows capacity in some dimension, every bin in the
// subtree overflows it there too).
func (s *Store[P]) subtreeFeasible(n int32, size vector.Vector, fm uint64) bool {
	nd := &s.nodes[n]
	if nd.mask&fm == 0 {
		return false
	}
	s.checks++
	return vector.Vector(nd.minLoad).FitsWithin(size)
}

func (s *Store[P]) firstFeasible(n int32, size vector.Vector, fm uint64) int32 {
	for n != nilNode {
		nd := &s.nodes[n]
		if l := nd.left; l != nilNode && s.subtreeFeasible(l, size, fm) {
			if r := s.firstFeasible(l, size, fm); r != nilNode {
				return r
			}
		}
		s.checks++
		if vector.Vector(nd.load).FitsWithin(size) {
			return n
		}
		r := nd.right
		if r == nilNode || !s.subtreeFeasible(r, size, fm) {
			return nilNode
		}
		n = r
	}
	return nilNode
}

// --- residual-capacity bucketing ---

// residMask returns the bucket bit for a bin's maximum per-dimension
// residual, rounded up by maskSlack so the bucket prune stays conservative.
func residMask(load []float64) uint64 {
	maxResid := 0.0
	for _, x := range load {
		if r := 1 - x; r > maxResid {
			maxResid = r
		}
	}
	b := int((maxResid + maskSlack) * bucketCount)
	if b >= bucketCount {
		b = bucketCount - 1
	}
	if b < 0 {
		b = 0
	}
	return 1 << uint(b)
}

// feasMask returns the buckets that could hold a bin fitting an item of the
// given size: a bin fits only if its maximum residual covers the item's
// largest component (up to vector.Eps), so buckets whose upper bound falls
// below that are excluded. The top bucket is unbounded and never excluded.
func feasMask(size []float64) uint64 {
	m := 0.0
	for _, x := range size {
		if x > m {
			m = x
		}
	}
	k := int((m - vector.Eps) * bucketCount)
	if k <= 0 {
		return ^uint64(0)
	}
	if k >= bucketCount {
		k = bucketCount - 1
	}
	return ^uint64(0) << uint(k)
}

// --- tree mechanics ---

// lessKey orders arena nodes by (kf, ks) lexicographically.
func (s *Store[P]) lessKey(kf float64, ks int64, n int32) bool {
	nd := &s.nodes[n]
	return kf < nd.kf || (kf == nd.kf && ks < nd.ks)
}

func (s *Store[P]) alloc(kf float64, ks int64, id int, load vector.Vector, payload P) int32 {
	if len(load) != s.d {
		panic(fmt.Sprintf("binindex: load dimension %d, store dimension %d", len(load), s.d))
	}
	var n int32
	if k := len(s.free); k > 0 {
		n = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		s.nodes = append(s.nodes, node[P]{load: make([]float64, s.d), minLoad: make([]float64, s.d)})
		n = int32(len(s.nodes) - 1)
	}
	nd := &s.nodes[n]
	nd.kf, nd.ks, nd.id, nd.payload = kf, ks, id, payload
	nd.prio = prioOf(id)
	nd.left, nd.right = nilNode, nilNode
	copy(nd.load, load)
	nd.selfMask = residMask(nd.load)
	return n
}

// pull recomputes n's count, minLoad and mask from its children.
func (s *Store[P]) pull(n int32) {
	nd := &s.nodes[n]
	nd.count = 1
	copy(nd.minLoad, nd.load)
	nd.mask = nd.selfMask
	for _, c := range [2]int32{nd.left, nd.right} {
		if c == nilNode {
			continue
		}
		cd := &s.nodes[c]
		nd.count += cd.count
		nd.mask |= cd.mask
		for j, x := range cd.minLoad {
			if x < nd.minLoad[j] {
				nd.minLoad[j] = x
			}
		}
	}
}

// insertRec inserts the detached node x into the subtree at n, rotating x up
// while its priority beats its parent's (the treap invariant), and returns
// the new subtree root with augmentations recomputed along the path.
func (s *Store[P]) insertRec(n, x int32) int32 {
	if n == nilNode {
		// x may be a just-detached node being re-keyed (Update); drop
		// whatever children it had in its old position.
		s.nodes[x].left, s.nodes[x].right = nilNode, nilNode
		s.pull(x)
		return x
	}
	xd := &s.nodes[x]
	nd := &s.nodes[n]
	if s.lessKey(xd.kf, xd.ks, n) {
		l := s.insertRec(nd.left, x)
		nd.left = l
		if s.nodes[l].prio > nd.prio {
			// Rotate right: l up, n down as l's right child.
			nd.left = s.nodes[l].right
			s.nodes[l].right = n
			s.pull(n)
			s.pull(l)
			return l
		}
	} else {
		r := s.insertRec(nd.right, x)
		nd.right = r
		if s.nodes[r].prio > nd.prio {
			// Rotate left: r up, n down as r's left child.
			nd.right = s.nodes[r].left
			s.nodes[r].left = n
			s.pull(n)
			s.pull(r)
			return r
		}
	}
	s.pull(n)
	return n
}

// removeRec unlinks the node with the given key from the subtree at n and
// returns the new subtree root. The node itself is left intact for the
// caller to re-key, recycle, or relink.
func (s *Store[P]) removeRec(n int32, kf float64, ks int64) int32 {
	if n == nilNode {
		panic("binindex: remove of missing key")
	}
	nd := &s.nodes[n]
	switch {
	case s.lessKey(kf, ks, n):
		nd.left = s.removeRec(nd.left, kf, ks)
	case kf == nd.kf && ks == nd.ks:
		return s.merge(nd.left, nd.right)
	default:
		nd.right = s.removeRec(nd.right, kf, ks)
	}
	s.pull(n)
	return n
}

// merge joins two treaps where every key in a precedes every key in b,
// picking roots by priority so the result is the unique canonical shape.
func (s *Store[P]) merge(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	if s.nodes[a].prio > s.nodes[b].prio {
		s.nodes[a].right = s.merge(s.nodes[a].right, b)
		s.pull(a)
		return a
	}
	s.nodes[b].left = s.merge(a, s.nodes[b].left)
	s.pull(b)
	return b
}

// refreshPath recomputes the pruning augmentations along the root-to-key
// path after an in-place load change. The shape is untouched.
func (s *Store[P]) refreshPath(n int32, kf float64, ks int64) {
	if n == nilNode {
		panic("binindex: refresh of missing key")
	}
	nd := &s.nodes[n]
	switch {
	case s.lessKey(kf, ks, n):
		s.refreshPath(nd.left, kf, ks)
	case kf == nd.kf && ks == nd.ks:
		// target reached; pull below refreshes it
	default:
		s.refreshPath(nd.right, kf, ks)
	}
	s.pull(n)
}

// --- introspection for tests ---

// Shape returns a canonical preorder encoding of the tree structure
// ((id, depth) pairs). Tests use it to verify history independence: any
// operation sequence reaching the same (key, id, load) set must produce the
// same shape — the property that makes instrumentation counts reproducible
// across checkpoint restore.
func (s *Store[P]) Shape() []int {
	var out []int
	var walk func(n int32, depth int)
	walk = func(n int32, depth int) {
		if n == nilNode {
			return
		}
		out = append(out, s.nodes[n].id, depth)
		walk(s.nodes[n].left, depth+1)
		walk(s.nodes[n].right, depth+1)
	}
	walk(s.root, 0)
	return out
}

// Validate checks every structural invariant of the store — key ordering,
// the treap heap property, order-statistic counts, augmentation consistency,
// and the byID map — returning the first violation found. Tests call it
// after every mutation burst; it is O(n·d).
func (s *Store[P]) Validate() error {
	seen := 0
	var prevSet bool
	var prevKf float64
	var prevKs int64
	var walk func(n int32) (c int32, err error)
	walk = func(n int32) (int32, error) {
		if n == nilNode {
			return 0, nil
		}
		nd := &s.nodes[n]
		lc, err := walk(nd.left)
		if err != nil {
			return 0, err
		}
		if prevSet && !(prevKf < nd.kf || (prevKf == nd.kf && prevKs < nd.ks)) {
			return 0, fmt.Errorf("binindex: key order violated at bin %d", nd.id)
		}
		prevSet, prevKf, prevKs = true, nd.kf, nd.ks
		seen++
		if got, ok := s.byID[nd.id]; !ok || got != n {
			return 0, fmt.Errorf("binindex: byID inconsistent for bin %d", nd.id)
		}
		if nd.prio != prioOf(nd.id) {
			return 0, fmt.Errorf("binindex: priority stale at bin %d", nd.id)
		}
		rc, err := walk(nd.right)
		if err != nil {
			return 0, err
		}
		if nd.count != lc+rc+1 {
			return 0, fmt.Errorf("binindex: count %d != %d at bin %d", nd.count, lc+rc+1, nd.id)
		}
		wantMask := nd.selfMask
		wantMin := append([]float64(nil), nd.load...)
		for _, c := range [2]int32{nd.left, nd.right} {
			if c == nilNode {
				continue
			}
			cd := &s.nodes[c]
			if cd.prio > nd.prio {
				return 0, fmt.Errorf("binindex: heap property violated at bin %d", nd.id)
			}
			wantMask |= cd.mask
			for j, x := range cd.minLoad {
				if x < wantMin[j] {
					wantMin[j] = x
				}
			}
		}
		if nd.mask != wantMask {
			return 0, fmt.Errorf("binindex: mask stale at bin %d", nd.id)
		}
		if nd.selfMask != residMask(nd.load) {
			return 0, fmt.Errorf("binindex: self mask stale at bin %d", nd.id)
		}
		for j := range wantMin {
			if nd.minLoad[j] != wantMin[j] {
				return 0, fmt.Errorf("binindex: minLoad stale at bin %d dim %d", nd.id, j)
			}
		}
		return lc + rc + 1, nil
	}
	if _, err := walk(s.root); err != nil {
		return err
	}
	if seen != len(s.byID) {
		return fmt.Errorf("binindex: tree has %d nodes, byID has %d", seen, len(s.byID))
	}
	return nil
}
