package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestEventStreamDigest pins the EventRecord stream of the runs that no
// snapshot oracle reaches, since Snapshot refuses them: every standard
// policy at d ∈ {1, 2, 5}, over three random lists, under crashes with a
// fixed retry delay, under a bin cap alone, under a bin cap with an
// admission queue, and under consolidating migration, alone and beside a
// capped queue. Persisted dvbpchaos op logs fold this stream into their
// digest marks, so a change to it strands every such log. The test also
// checks that the runs reach what they are there for: stale departures,
// rejections, time-outs, queued placements and migration moves.
func TestEventStreamDigest(t *testing.T) {
	const want = 0xb474569f46141057
	migrate := func() Option {
		return WithMigration(testConsolidator{}, 4, MigrationBudget{MaxMoves: 5, MaxCost: 40})
	}
	configs := []struct {
		name string
		opts func() []Option
	}{
		{"crashes", func() []Option { return []Option{WithFaults(hashInj{seed: 5, mean: 15}, fixedRetry{wait: 2})} }},
		{"cap", func() []Option { return []Option{WithMaxBins(4)} }},
		{"cap+queue", func() []Option { return []Option{WithMaxBins(4), WithAdmissionQueue(3)} }},
		{"migration", func() []Option { return []Option{migrate()} }},
		{"migration+cap+queue", func() []Option { return []Option{migrate(), WithMaxBins(4), WithAdmissionQueue(3)} }},
	}
	h := fnv.New64a()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	var events, stale int
	var totals Result
	for _, d := range []int{1, 2, 5} {
		for seed := int64(1); seed <= 3; seed++ {
			l := randomList(seed, 200, d, 20)
			for _, c := range configs {
				for _, p := range StandardPolicies(seed) {
					e, err := NewEngine(l, p, c.opts()...)
					if err != nil {
						t.Fatal(err)
					}
					recs, res := stepAll(t, e)
					for _, r := range recs {
						word(uint64(r.Seq))
						word(uint64(r.Class))
						word(math.Float64bits(r.Time))
						word(uint64(int64(r.ItemID)))
						word(uint64(int64(r.BinID)))
						var flags uint64
						if r.Placed {
							flags |= 1
						}
						if r.Opened {
							flags |= 2
						}
						word(flags)
						if r.Class == EventDeparture && r.BinID < 0 {
							stale++
						}
					}
					events += len(recs)
					totals.Rejected += res.Rejected
					totals.TimedOut += res.TimedOut
					totals.QueuedPlaced += res.QueuedPlaced
					totals.Migrations += res.Migrations
					totals.Evictions += res.Evictions
				}
			}
		}
	}
	if stale == 0 || totals.Rejected == 0 || totals.TimedOut == 0 || totals.QueuedPlaced == 0 || totals.Migrations == 0 || totals.Evictions == 0 {
		t.Fatalf("the runs reach too little: %d stale departures, %d evictions, %d rejected, %d timed out, %d queued placements, %d migrations",
			stale, totals.Evictions, totals.Rejected, totals.TimedOut, totals.QueuedPlaced, totals.Migrations)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("%d events digest to %#016x, want %#016x", events, got, uint64(want))
	}
	t.Logf("%d events, %d stale departures, %d evictions, %d rejected, %d timed out, %d queued placements, %d migrations",
		events, stale, totals.Evictions, totals.Rejected, totals.TimedOut, totals.QueuedPlaced, totals.Migrations)
}
