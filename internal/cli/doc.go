// Package cli holds the small conventions shared by every dvbp command-line
// tool, so their behaviour stays consistent as commands accumulate: one exit
// code vocabulary and one fatal-error shape. It also holds what dvbpsim and
// dvbpchaos share: loading an instance from a trace or the generator flags,
// and the driver that runs a policy in memory or persisted through
// internal/persist (fresh, or resumed by re-stepping its op log from event
// 0; with -kill-at and a fault-injecting filesystem for dvbpchaos).
package cli
