package metrics

import (
	"testing"

	"dvbp/internal/core"
)

// observeOneEvent drives a Collector through a full steady-state engine
// event: a decision (AfterSelect), a placement (BeforePack/AfterPack into an
// existing bin), and a bin close.
func observeOneEvent(c *Collector, req core.Request, b *core.Bin) {
	c.BeforePack(req, nil)
	c.AfterSelect(req, b, 3)
	c.AfterPack(req, b, false)
	c.BinClosed(b, 1)
}

// TestCollectorHotPathAllocs pins the observer seam to zero steady-state
// allocations: attaching a Collector must not reintroduce per-event garbage
// on the engine hot path the incremental load accounting just cleared.
// (The placement start is one atomic, and so is every instrument.)
func TestCollectorHotPathAllocs(t *testing.T) {
	c := NewCollector(WithClock(&Manual{}))
	req := core.Request{ID: 1, SeqNo: 1}
	b := &core.Bin{ID: 0}
	observeOneEvent(c, req, b)
	allocs := testing.AllocsPerRun(200, func() {
		observeOneEvent(c, req, b)
	})
	if allocs != 0 {
		t.Errorf("collector hot path allocates %v per event in steady state, want 0", allocs)
	}
}

func BenchmarkCollectorObserverHotPath(b *testing.B) {
	c := NewCollector(WithClock(&Manual{}))
	req := core.Request{ID: 1, SeqNo: 1}
	bin := &core.Bin{ID: 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		observeOneEvent(c, req, bin)
	}
}
