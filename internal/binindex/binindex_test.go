package binindex_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dvbp/internal/binindex"
	"dvbp/internal/vector"
)

// refEntry mirrors one indexed bin in the naive reference model.
type refEntry struct {
	kf   float64
	ks   int64
	id   int
	load vector.Vector
}

// refModel is the linear-scan oracle: a plain slice re-sorted on every query.
type refModel struct {
	entries []refEntry
}

func (m *refModel) sorted() []refEntry {
	out := append([]refEntry(nil), m.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].kf != out[j].kf {
			return out[i].kf < out[j].kf
		}
		return out[i].ks < out[j].ks
	})
	return out
}

func (m *refModel) firstFeasible(size vector.Vector) (int, bool) {
	for _, e := range m.sorted() {
		if e.load.FitsWithin(size) {
			return e.id, true
		}
	}
	return 0, false
}

func (m *refModel) find(id int) *refEntry {
	for i := range m.entries {
		if m.entries[i].id == id {
			return &m.entries[i]
		}
	}
	return nil
}

func (m *refModel) remove(id int) {
	for i := range m.entries {
		if m.entries[i].id == id {
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			return
		}
	}
}

func randLoad(r *rand.Rand, d int) vector.Vector {
	v := vector.New(d)
	for j := range v {
		v[j] = float64(r.Intn(100)) / 100
	}
	return v
}

func randSize(r *rand.Rand, d int) vector.Vector {
	v := vector.New(d)
	for j := range v {
		v[j] = float64(1+r.Intn(100)) / 100
	}
	return v
}

// checkAgainstRef cross-checks every query the engine issues against the
// naive model: structural invariants and first-feasible answers for a spread
// of item sizes.
func checkAgainstRef(t *testing.T, s *binindex.Store[int], m *refModel, r *rand.Rand, d int) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(m.entries) {
		t.Fatalf("store has %d entries, reference %d", s.Len(), len(m.entries))
	}
	for q := 0; q < 8; q++ {
		size := randSize(r, d)
		gotID, gotOK := s.FirstFeasible(size)
		wantID, wantOK := m.firstFeasible(size)
		if gotOK != wantOK || (gotOK && gotID != wantID) {
			t.Fatalf("FirstFeasible(%v) = (%d, %v), reference (%d, %v)", size, gotID, gotOK, wantID, wantOK)
		}
	}
}

// TestStoreMatchesLinearScanKeyed drives a keyed store (the Best Fit
// discipline: key (-‖load‖∞, id), re-keyed on every load change) through a
// random churn history and checks every answer against the naive model.
func TestStoreMatchesLinearScanKeyed(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		r := rand.New(rand.NewSource(int64(100 + d)))
		s := binindex.New[int](d)
		m := &refModel{}
		key := func(load vector.Vector, id int) (float64, int64) {
			return -load.MaxNorm(), int64(id)
		}
		nextID := 0
		for op := 0; op < 2000; op++ {
			switch {
			case len(m.entries) == 0 || r.Intn(3) == 0: // insert
				load := randLoad(r, d)
				kf, ks := key(load, nextID)
				s.Insert(kf, ks, nextID, load, nextID)
				m.entries = append(m.entries, refEntry{kf: kf, ks: ks, id: nextID, load: load.Clone()})
				nextID++
			case r.Intn(2) == 0: // update (load change re-keys)
				e := &m.entries[r.Intn(len(m.entries))]
				load := randLoad(r, d)
				kf, ks := key(load, e.id)
				s.Update(e.id, kf, ks, load)
				e.kf, e.ks = kf, ks
				copy(e.load, load)
			default: // remove
				id := m.entries[r.Intn(len(m.entries))].id
				s.Remove(id)
				m.remove(id)
			}
			if op%17 == 0 {
				checkAgainstRef(t, s, m, r, d)
			}
		}
		checkAgainstRef(t, s, m, r, d)
	}
}

// TestStoreChecksCounting pins the feasibility-evaluation counter: a query
// over a single-node store performs exactly one evaluation, and ResetChecks
// zeroes the counter.
func TestStoreChecksCounting(t *testing.T) {
	s := binindex.New[int](1)
	s.Insert(0, 0, 0, vector.Of(0.5), 0)
	s.ResetChecks()
	if _, ok := s.FirstFeasible(vector.Of(0.4)); !ok {
		t.Fatal("item should fit")
	}
	if got := s.Checks(); got != 1 {
		t.Errorf("checks = %d, want 1", got)
	}
	s.ResetChecks()
	if got := s.Checks(); got != 0 {
		t.Errorf("checks after reset = %d, want 0", got)
	}
}

// TestStoreSteadyStateAllocs pins the hot path: with the arena warmed up,
// queries, same-key load updates, re-keying updates and remove/insert cycles
// must not allocate.
func TestStoreSteadyStateAllocs(t *testing.T) {
	const d, n = 2, 256
	s := binindex.New[int](d)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		s.Insert(-float64(i%10)/10, int64(i), i, randLoad(r, d), i)
	}
	// Warm the free list so a remove/insert cycle recycles instead of growing.
	s.Remove(0)
	s.Insert(0, 0, 0, vector.Of(0.1, 0.1), 0)

	size := vector.Of(0.3, 0.3)
	load := vector.Of(0.25, 0.4)
	if a := testing.AllocsPerRun(100, func() {
		s.FirstFeasible(size)
	}); a != 0 {
		t.Errorf("FirstFeasible allocates %v per call, want 0", a)
	}
	kf := 0.0
	if a := testing.AllocsPerRun(100, func() {
		kf -= 0.001
		s.Update(7, kf, 7, load) // key changes: remove + insert path
	}); a != 0 {
		t.Errorf("re-keying Update allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		s.Update(9, -0.9, 9, load) // key unchanged: path refresh only
	}); a != 0 {
		t.Errorf("same-key Update allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		s.Remove(5)
		s.Insert(-0.42, 5, 5, load, 5)
	}); a != 0 {
		t.Errorf("Remove+Insert cycle allocates %v per call, want 0", a)
	}
}

// TestStorePanicsOnMisuse pins the engine-facing contract: duplicate inserts
// and operations on unindexed IDs are programming errors, not silent no-ops.
func TestStorePanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		f()
	}
	s := binindex.New[int](1)
	s.Insert(0, 0, 0, vector.Of(0.5), 0)
	mustPanic("duplicate insert", func() { s.Insert(1, 1, 0, vector.Of(0.1), 0) })
	mustPanic("remove missing", func() { s.Remove(42) })
	mustPanic("update missing", func() { s.Update(42, 0, 0, vector.Of(0.1)) })
	mustPanic("dimension mismatch", func() { s.Insert(2, 2, 1, vector.Of(0.1, 0.2), 1) })
}

// TestStoreShapeHistoryIndependent pins the treap's canonical-shape
// guarantee: any operation sequence reaching the same (key, id, load) set
// produces bit-identical tree structure. This is what makes the store's
// check counts — and therefore the fit-check metrics — reproducible when a
// checkpoint restore rebuilds the index from scratch instead of replaying
// the mutation history that grew the live tree.
func TestStoreShapeHistoryIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const d = 2
	for trial := 0; trial < 20; trial++ {
		// Grow a store through a random churn history.
		live := binindex.New[int](d)
		type entry struct {
			kf   float64
			ks   int64
			id   int
			load vector.Vector
		}
		alive := map[int]entry{}
		next := 0
		for op := 0; op < 400; op++ {
			switch {
			case len(alive) == 0 || r.Float64() < 0.45:
				e := entry{kf: -randLoad(r, d).MaxNorm(), ks: int64(next), id: next, load: randLoad(r, d)}
				live.Insert(e.kf, e.ks, e.id, e.load, e.id)
				alive[e.id] = e
				next++
			case r.Float64() < 0.5:
				for id, e := range alive {
					e.kf, e.load = -randLoad(r, d).MaxNorm(), randLoad(r, d)
					live.Update(id, e.kf, e.ks, e.load)
					alive[id] = e
					break
				}
			default:
				for id := range alive {
					live.Remove(id)
					delete(alive, id)
					break
				}
			}
		}
		// Rebuild from scratch in ascending-ID order (the restore path's
		// discipline) and in a second, shuffled order.
		ids := make([]int, 0, len(alive))
		for id := range alive {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		rebuilt := binindex.New[int](d)
		for _, id := range ids {
			e := alive[id]
			rebuilt.Insert(e.kf, e.ks, e.id, e.load, e.id)
		}
		r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		shuffled := binindex.New[int](d)
		for _, id := range ids {
			e := alive[id]
			shuffled.Insert(e.kf, e.ks, e.id, e.load, e.id)
		}
		want := live.Shape()
		for name, s := range map[string]*binindex.Store[int]{"rebuilt": rebuilt, "shuffled": shuffled} {
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d: %s invalid: %v", trial, name, err)
			}
			if got := s.Shape(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s shape diverges from live tree", trial, name)
			}
		}
		// Shape equality implies identical query descent, hence identical
		// check counts — assert it directly on a few probes anyway.
		for probe := 0; probe < 4; probe++ {
			size := randSize(r, d)
			live.ResetChecks()
			rebuilt.ResetChecks()
			lb, lok := live.FirstFeasible(size)
			rb, rok := rebuilt.FirstFeasible(size)
			if lok != rok || lb != rb {
				t.Fatalf("trial %d: FirstFeasible diverges", trial)
			}
			if live.Checks() != rebuilt.Checks() {
				t.Fatalf("trial %d: check counts diverge: live %d, rebuilt %d", trial, live.Checks(), rebuilt.Checks())
			}
		}
	}
}
