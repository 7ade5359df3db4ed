// Package migrate implements budgeted defragmentation for the DVBP engine:
// consolidation planners that periodically relocate active items between open
// bins to drain lightly-used bins (closing them early and saving usage-time
// cost) or to reduce stranded capacity, under a hard per-pass budget on both
// the move count and the moved size × remaining-duration migration cost.
//
// The package supplies the standard core.MigrationPlanner implementations —
// drain-emptiest, FARB-score-driven and stranded-capacity-driven (the latter
// ranked by metrics.FragOf) — and Config, the CLI/experiment wiring that
// resolves a planner by name into a core.WithMigration option.
//
// Every planner is a deterministic pure function of the migration view and
// budget, the property the engine's re-step recovery depends on
// (DESIGN.md §14). Plans never exceed the budget and never overflow a target
// bin. The engine is the one validator of plans: it checks each plan against
// the budget and its live state before any move applies, and each move
// against its exact accumulator loads as it applies; a plan that fails
// either check poisons the run with an error, never a panic
// (FuzzMigrationPlan drives it with adversarial plans).
package migrate
