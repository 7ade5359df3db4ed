// Package binindex implements the sub-linear indexed bin store behind the
// engine's Worst Fit policy at every dimension and its Best Fit policy at
// d = 1: an order-statistic tree over the open bins, augmented with
// residual-capacity pruning metadata, that answers their Select as a single
// "leftmost feasible entry in key order" query.
//
// # One query, two policies
//
// Best Fit and Worst Fit reduce their Select to a feasibility-filtered
// argmax/argmin of a load measure w, and each is the *first feasible entry*
// under a total order on the open bins:
//
//	Best Fit (w)   key (-w(bin), binID)  — max load measure, ties to lowest ID
//	Worst Fit (w)  key (+w(bin), binID)  — min load measure, ties to lowest ID
//
// Keys are (float64, int64) pairs compared lexicographically. Because bin IDs
// are unique, keys are unique, and the first feasible entry in key order is
// exactly the bin the policy's linear scan would have chosen — including its
// tie-breaking — so indexed and scanned decisions are bit-identical (the
// contract DESIGN.md §11 specifies and the differential suites enforce).
//
// Every other Any Fit policy scans: where the key is a bin ID or a recency
// rank, or the score depends on the item, the index could only prune the
// scan, and on measured fleets the plain scan was faster (DESIGN.md §11).
// Best Fit at d ≥ 2 scans too: see below.
//
// # Structure and complexity
//
// The store is a treap in a flat node arena (int32 links, free-list
// recycling), so steady-state Insert/Remove/Update/queries allocate nothing.
// Its priorities are a fixed hash of the bin ID, which makes the tree's shape
// a pure function of its contents; an AVL or red-black tree would not give
// that, and DESIGN.md §11 explains why the canonical shape matters. Every
// node carries order-statistic counts plus two pruning augmentations over its
// subtree:
//
//   - minLoad: the component-wise minimum load vector. A subtree can contain
//     a feasible bin only if minLoad itself fits the item; because float64
//     rounding is monotone, this prune is exact — it never skips a feasible
//     bin (DESIGN.md §11 gives the argument).
//   - a 64-bucket residual-capacity bitmask: bins are bucketed by their
//     maximum per-dimension residual, and a subtree whose occupied buckets
//     all lie below the item's largest component cannot fit it. The mask is
//     a conservative O(1) pre-filter in front of the O(d) minLoad check.
//
// FirstFeasible therefore runs in expected O(d·log n) for d = 1 (the minLoad
// prune is exact and sufficient in one dimension) and degrades for d ≥ 2,
// where component-wise pruning admits false positives: worst case O(d·n).
// Worst Fit escapes the worst case, because its leftmost entries are the
// emptiest bins, which nearly always fit. Best Fit's leftmost entries are
// the fullest bins, tight in different dimensions, so at d ≥ 2 its descent
// visits a large part of the tree and the scan is faster, so the engine
// routes it there. The fleet benchmarks in BENCH_core.json pin the measured
// behaviour.
//
// The engine owns index maintenance (insert on open, update on pack, depart
// and migration move, remove on close/crash). It builds the store from the
// open bins once a run's peak open-bin count reaches a threshold, since the
// scan is faster on smaller fleets, and again after a checkpoint restore of
// such a run; policies only supply their key. See core.IndexedPolicy for
// the binding contract.
package binindex
