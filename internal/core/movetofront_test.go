package core

import (
	"math/rand"
	"testing"

	"dvbp/internal/vector"
)

// recencyIDs walks the intrusive recency list front to back.
func (mf *MoveToFront) recencyIDs() []int {
	var ids []int
	for i := mf.head; i != -1; i = mf.nodes[i].next {
		ids = append(ids, mf.nodes[i].bin.ID)
	}
	return ids
}

// mtfModel is the obviously-correct slice model of the recency order: pack
// promotes (or inserts at) the front, close deletes wherever the bin sits.
type mtfModel struct{ order []int }

func (m *mtfModel) pack(id int) {
	for i, x := range m.order {
		if x == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.order = append([]int{id}, m.order...)
}

func (m *mtfModel) close(id int) {
	for i, x := range m.order {
		if x == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// TestMoveToFrontRecencyOrder drives the index-backed list through random
// open/promote/close sequences — closes hit arbitrary list positions, exactly
// what a crash does to a non-leader bin — and checks the full recency order
// against the slice model after every operation.
func TestMoveToFrontRecencyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mf := NewMoveToFront()
	var model mtfModel
	req := Request{Size: vector.Of(0.1)}

	bins := make(map[int]*Bin)
	nextID := 0
	openIDs := func() []int {
		ids := make([]int, 0, len(bins))
		for id := range bins {
			ids = append(ids, id)
		}
		return ids
	}

	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(bins) == 0: // open a new bin
			b := newBin(nextID, 1, 0)
			nextID++
			bins[b.ID] = b
			mf.OnPack(req, b, true)
			model.pack(b.ID)
		case r < 8: // promote an existing bin (pack into it)
			ids := openIDs()
			id := ids[rng.Intn(len(ids))]
			mf.OnPack(req, bins[id], false)
			model.pack(id)
		default: // close an arbitrary bin (departure-close or crash)
			ids := openIDs()
			id := ids[rng.Intn(len(ids))]
			mf.OnClose(bins[id])
			model.close(id)
			delete(bins, id)
		}

		got := mf.recencyIDs()
		if len(got) != len(model.order) {
			t.Fatalf("step %d: recency list has %d bins, model %d", step, len(got), len(model.order))
		}
		for i := range got {
			if got[i] != model.order[i] {
				t.Fatalf("step %d: recency order %v, model %v", step, got, model.order)
			}
		}
		wantLeader := -1
		if len(model.order) > 0 {
			wantLeader = model.order[0]
		}
		if mf.LeaderID() != wantLeader {
			t.Fatalf("step %d: LeaderID = %d, model %d", step, mf.LeaderID(), wantLeader)
		}
	}
}

// TestMoveToFrontSelectScansRecencyOrder pins the Select contract: bins are
// probed strictly in recency order and the first fitting bin wins, even when
// fresher bins are full.
func TestMoveToFrontSelectScansRecencyOrder(t *testing.T) {
	mf := NewMoveToFront()
	req := Request{Size: vector.Of(0.1)}

	full := newBin(0, 1, 0)
	if err := testPack(full, 100, vector.Of(0.95)); err != nil {
		t.Fatal(err)
	}
	roomy := newBin(1, 1, 0)
	spare := newBin(2, 1, 0)
	// Recency: full (leader), then roomy, then spare.
	mf.OnPack(req, spare, true)
	mf.OnPack(req, roomy, true)
	mf.OnPack(req, full, true)

	open := []*Bin{full, roomy, spare}
	if got := mf.Select(req, open); got != roomy {
		t.Fatalf("Select chose bin %v, want roomy bin 1 (leader full, next in recency order)", got)
	}
	// Closing the leader promotes roomy; spare stays behind it.
	mf.OnClose(full)
	if mf.LeaderID() != roomy.ID {
		t.Fatalf("leader after close = %d, want %d", mf.LeaderID(), roomy.ID)
	}
	if got := mf.Select(req, []*Bin{roomy, spare}); got != roomy {
		t.Fatalf("Select chose %v, want roomy", got)
	}
}

// TestMoveToFrontReset pins that Reset reclaims all nodes and a reused policy
// behaves like a fresh one.
func TestMoveToFrontReset(t *testing.T) {
	mf := NewMoveToFront()
	req := Request{Size: vector.Of(0.1)}
	for i := 0; i < 8; i++ {
		mf.OnPack(req, newBin(i, 1, 0), true)
	}
	mf.Reset()
	if mf.LeaderID() != -1 {
		t.Fatalf("LeaderID after Reset = %d, want -1", mf.LeaderID())
	}
	if got := mf.Select(req, nil); got != nil {
		t.Fatalf("Select after Reset = %v, want nil", got)
	}
	b := newBin(99, 1, 0)
	mf.OnPack(req, b, true)
	if mf.LeaderID() != 99 {
		t.Fatalf("LeaderID = %d, want 99", mf.LeaderID())
	}
}
