package dvbp_test

import (
	"fmt"
	"log"

	"dvbp"
)

// ExampleSimulate shows the minimal packing workflow: build an instance,
// choose a policy, run, and read the cost.
func ExampleSimulate() {
	l := dvbp.NewList(2)
	l.Add(0, 10, dvbp.Vec(0.5, 0.3))
	l.Add(1, 4, dvbp.Vec(0.4, 0.6))
	l.Add(2, 9, dvbp.Vec(0.3, 0.3))

	res, err := dvbp.Simulate(l, dvbp.NewMoveToFront())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost=%.0f bins=%d\n", res.Cost, res.BinsOpened)
	// Output: cost=17 bins=2
}

// ExampleLowerBounds brackets the optimum: Lemma 1 lower bounds below,
// offline heuristics above.
func ExampleLowerBounds() {
	l := dvbp.NewList(1)
	l.Add(0, 2, dvbp.Vec(0.8))
	l.Add(1, 3, dvbp.Vec(0.8))

	lb := dvbp.LowerBounds(l)
	up, err := dvbp.OfflineBestEstimate(l)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OPT in [%.0f, %.0f]\n", lb.Best(), up.Cost)
	// Output: OPT in [4, 4]
}

// ExampleTheoremEightInstance replays the Theorem 8 worst case for Move To
// Front and reports the certified competitive-ratio lower bound.
func ExampleTheoremEightInstance() {
	in, err := dvbp.TheoremEightInstance(8, 10)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dvbp.Simulate(in.List, dvbp.NewMoveToFront())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bins=%d certified CR >= %.2f (target 2mu = %.0f)\n",
		res.BinsOpened, in.MeasuredRatio(res.Cost), in.AsymptoticRatio)
	// Output: bins=16 certified CR >= 8.89 (target 2mu = 20)
}

// ExampleSimulate_clairvoyant enables the clairvoyant extension: departure
// times become visible to the policy.
func ExampleSimulate_clairvoyant() {
	l := dvbp.NewList(1)
	l.Add(0, 1, dvbp.Vec(0.5))  // short
	l.Add(0, 64, dvbp.Vec(0.5)) // long
	res, err := dvbp.Simulate(l, dvbp.NewDurationClassFit(), dvbp.WithClairvoyance())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bins=%d (classes kept apart)\n", res.BinsOpened)
	// Output: bins=2 (classes kept apart)
}

// ExampleWithFaults crashes a server mid-run: the item is evicted, retried
// immediately, and finishes its session on a replacement bin.
func ExampleWithFaults() {
	l := dvbp.NewList(1)
	l.Add(0, 10, dvbp.Vec(0.6))

	trace, err := dvbp.NewCrashTrace([]dvbp.CrashEvent{{BinID: 0, At: 4}})
	if err != nil {
		log.Fatal(err)
	}
	res, err := dvbp.Simulate(l, dvbp.NewFirstFit(),
		dvbp.WithFaults(trace, dvbp.RetryImmediate{}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost=%.0f bins=%d crashes=%d retries=%d outcome=%s\n",
		res.Cost, res.BinsOpened, res.Crashes, res.Retries, res.Outcomes[0])
	// Output: cost=10 bins=2 crashes=1 retries=1 outcome=served
}

// ExampleUniformWorkload generates the paper's Table 2 experimental model.
func ExampleUniformWorkload() {
	l, err := dvbp.UniformWorkload(dvbp.UniformConfig{D: 2, N: 100, Mu: 10, T: 100, B: 100}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("items=%d d=%d\n", l.Len(), l.Dim)
	// Output: items=100 d=2
}
