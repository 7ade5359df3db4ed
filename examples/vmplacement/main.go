// VM placement: the cloud-provider view from Section 1 of the paper. VM
// requests with (vCPU, RAM, disk-IO, network) demands are placed onto
// physical servers; minimising total server usage time cuts the provider's
// power bill ("even a 1% improvement in packing efficiency can save ~$100M/yr
// at Azure scale").
//
// The example uses the library's diurnal session generator (day/night load
// cycle), converts the normalised trace into native-unit VM requests, and
// shows (a) the usage-time comparison across policies and (b) how far the
// best online policy is from the OPT bracket.
//
//	go run ./examples/vmplacement
package main

import (
	"fmt"
	"log"

	"dvbp"
	"dvbp/internal/workload"
)

func main() {
	const seed = 7

	// Two simulated days of VM arrivals with a 3x day/night swing.
	trace, err := workload.Diurnal(workload.DiurnalConfig{
		Session: workload.SessionConfig{
			D:            4, // vCPU, RAM, disk-IO, network
			Horizon:      48,
			Rate:         8,
			MeanDuration: 4,
			Alpha:        2.2,
			MinDuration:  0.25,
			MaxDuration:  24,
		},
		Period:     24,
		PeakFactor: 3,
	}, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VM trace: %d requests over %.0f hours, mu = %.1f\n\n",
		trace.Len(), trace.Hull().Length(), trace.Mu())

	// Physical servers: 128 vCPU, 512 GiB RAM, 100k IOPS, 25 Gbit/s. The
	// generator emits normalised demands, so capacity is 1^d here; a real
	// deployment would divide each request's native demand by the server's
	// capacity before packing it.
	lb := dvbp.LowerBounds(trace)
	up, err := dvbp.OfflineBestEstimate(trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OPT bracket: [%.1f, %.1f] server-hours\n\n", lb.Best(), up.Cost)

	fmt.Printf("%-12s %12s %10s %8s %8s\n", "policy", "usage(h)", "vs LB", "servers", "peak")
	type row struct {
		name string
		cost float64
	}
	var best, worst row
	for i, p := range dvbp.StandardPolicies(seed) {
		res, err := dvbp.Simulate(trace, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %12.1f %10.4f %8d %8d\n",
			p.Name(), res.Cost, res.Cost/lb.Best(), res.BinsOpened, res.MaxConcurrentBins)
		r := row{p.Name(), res.Cost}
		if i == 0 || r.cost < best.cost {
			best = r
		}
		if i == 0 || r.cost > worst.cost {
			worst = r
		}
	}

	// The provider-scale argument: % saved by choosing the best policy.
	saved := 100 * (worst.cost - best.cost) / worst.cost
	fmt.Printf("\n%s uses %.1f%% less server time than %s on this trace\n", best.name, saved, worst.name)

	// Clairvoyant upper bound: if VM lifetimes were known on arrival.
	cl, err := dvbp.Simulate(trace, dvbp.NewAlignedBestFit(), dvbp.WithClairvoyance())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with known lifetimes (AlignedBestFit): %.1f server-hours (%.4f vs LB)\n",
		cl.Cost, cl.Cost/lb.Best())
}
