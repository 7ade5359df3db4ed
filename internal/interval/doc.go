// Package interval implements half-open time intervals [Lo, Hi) and interval
// sets, the time-domain substrate of the DVBP system.
//
// The paper (Section 2) models each item's active period as a half-open
// interval I(r) = [a(r), e(r)), and the cost of a packing as the sum over
// bins of span(R_i) — the measure of the union of the active intervals of the
// items placed in the bin. This package provides exactly those operations:
// interval length, hull, union measure (span), coverage and merged interval
// sets.
package interval
