package core

import "math/rand"

// RandomFit packs an arriving item into a bin chosen uniformly at random
// among the open bins that can hold it (Section 7). It is an Any Fit
// algorithm: a new bin is opened only when no open bin fits.
//
// RandomFit is deterministic given its seed; Reset re-seeds so repeated runs
// of the same instance reproduce the same packing.
type RandomFit struct {
	seed int64
	src  countingSource
	rng  *rand.Rand
	scan fitScan
}

// countingSource wraps the standard PRNG source and counts its draws. Every
// consumption path (Int63 and Uint64 alike) advances the underlying
// generator by exactly one step, so the draw count alone pins the generator
// position: the checkpoint codec serialises (seed, draws) and restore
// fast-forwards a fresh source by that many steps, landing on a
// bit-identical state. The wrapper adds no allocation to the Select path.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src = rand.NewSource(seed).(rand.Source64)
	s.draws = 0
}

// NewRandomFit returns a Random Fit policy driven by the given seed.
func NewRandomFit(seed int64) *RandomFit {
	rf := &RandomFit{seed: seed}
	rf.Reset()
	return rf
}

// Name implements Policy.
func (*RandomFit) Name() string { return "RandomFit" }

// Reset implements Policy: restores the initial RNG state.
func (rf *RandomFit) Reset() {
	rf.src.Seed(rf.seed)
	rf.rng = rand.New(&rf.src)
}

// Select implements Policy using reservoir sampling over the fitting bins, so
// a single pass suffices and each fitting bin is equally likely.
func (rf *RandomFit) Select(req Request, open []*Bin) *Bin {
	var chosen *Bin
	n := 0
	for _, i := range rf.scan.fitting(open, req.Size) {
		n++
		if rf.rng.Intn(n) == 0 {
			chosen = open[i]
		}
	}
	return chosen
}

// OnPack implements Policy.
func (*RandomFit) OnPack(Request, *Bin, bool) {}

// OnClose implements Policy.
func (*RandomFit) OnClose(*Bin) {}
