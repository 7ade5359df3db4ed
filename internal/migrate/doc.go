// Package migrate implements budgeted defragmentation for the DVBP engine:
// consolidation planners that periodically relocate active items between open
// bins to drain lightly-used bins (closing them early and saving usage-time
// cost) or to reduce stranded capacity, under a hard per-pass budget on both
// the move count and the moved size × remaining-duration migration cost.
//
// The package supplies the standard core.MigrationPlanner implementations —
// drain-emptiest, FARB-score-driven and stranded-capacity-driven (the latter
// ranked by metrics.FragOf) — plus ValidatePlan, a structural validator over
// plain-data cluster states that rejects malformed or adversarial plans with
// structured *PlanError values (never a panic), and Config, the CLI/experiment
// wiring that resolves a planner by name into a core.WithMigration option.
//
// Every planner is a deterministic pure function of the migration view and
// budget, the property the engine's re-step recovery depends on
// (DESIGN.md §14). Plans never exceed the budget and never overflow a target
// bin; the engine re-verifies both against its exact accumulator loads when
// the moves apply.
package migrate
