package parallel

// SeedFor derives the per-trial RNG seed used throughout the experiment
// harness: a SplitMix64 step over (base, index), so neighbouring trials get
// decorrelated streams and the mapping is stable across releases.
func SeedFor(base int64, index int) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(index+1)
	return int64(mix64(z))
}
