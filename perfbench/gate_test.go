package main

import (
	"math"
	"testing"
	"time"

	"dvbp/internal/server"
)

// TestGateRejectsTamperedAckAndCost: the gate's comparisons are exact, so
// one changed bin in an acknowledgement, or a cost one ulp off, fails it.
func TestGateRejectsTamperedAckAndCost(t *testing.T) {
	cfg := server.TenantConfig{Name: "t", Dim: 2, Policy: "BestFit", Seed: 3}
	items, err := uniformStream(3, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	acks := append([]server.PlaceResult(nil), rep.decisions...)

	r := &report{}
	checkAcks(r, "t", acks, rep.decisions)
	checkCost(r, "t", server.TenantStatus{Cost: rep.cost, Served: len(items)}, rep, len(items))
	if len(r.Problems) != 0 {
		t.Fatalf("untampered outputs rejected: %v", r.Problems)
	}

	acks[len(acks)/2].Bin++
	checkAcks(r, "t", acks, rep.decisions)
	if len(r.Problems) != 1 {
		t.Fatalf("tampered ack: %d problems, want 1", len(r.Problems))
	}

	r = &report{}
	checkCost(r, "t", server.TenantStatus{Cost: math.Nextafter(rep.cost, math.Inf(1)), Served: len(items)}, rep, len(items))
	if len(r.Problems) != 1 {
		t.Fatalf("changed cost: %d problems, want 1", len(r.Problems))
	}
}

// TestDigestRepeatsForOneSeed: two short runs of one seed print the same
// digest, pass the gate and measure every bounded end-to-end metric; another
// seed prints another digest.
func TestDigestRepeatsForOneSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both serve workloads and the Figure 4 sweep")
	}
	for _, w := range []benchWorkload{workloads[0], workloads[1], workloads[3]} {
		digests := map[int64][]string{}
		for _, seed := range []int64{1, 1, 2} {
			r, err := w.run(runConfig{Seed: seed, Seconds: time.Second, Work: t.TempDir()})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if len(r.Problems) > 0 {
				t.Fatalf("%s seed %d: gate failed: %v", w.name, seed, r.Problems)
			}
			if _, err := gated(r.E2E); err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			digests[seed] = append(digests[seed], r.Digest)
		}
		if d := digests[1]; d[0] != d[1] {
			t.Errorf("%s: seed 1 printed %s then %s", w.name, d[0], d[1])
		}
		if digests[1][0] == digests[2][0] {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.name, digests[1][0])
		}
	}
}
