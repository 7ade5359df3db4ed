package core

import (
	"strings"
	"testing"
)

// TestPlaceBins pins Finish's bin placement: one record per ID in [0,
// BinsOpened), in any order, ends at the index of its ID, and any other set
// of records is an internal error, returned without hanging or panicking.
func TestPlaceBins(t *testing.T) {
	records := func(ids ...int) *Result {
		r := &Result{BinsOpened: len(ids)}
		for _, id := range ids {
			r.Bins = append(r.Bins, BinUsage{BinID: id, OpenedAt: float64(id), ClosedAt: float64(id) + 1})
		}
		return r
	}
	for _, ids := range [][]int{{}, {0}, {1, 0}, {2, 0, 1}, {1, 2, 0}, {3, 2, 1, 0}, {5, 3, 0, 4, 1, 2}} {
		r := records(ids...)
		if err := r.placeBins(); err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
		for k, u := range r.Bins {
			if u.BinID != k || u.OpenedAt != float64(k) {
				t.Fatalf("%v: record %d is %+v", ids, k, u)
			}
		}
	}
	for _, tc := range []struct {
		name string
		r    *Result
		want string
	}{
		{"duplicated", records(1, 0, 1), "two records of bin 1"},
		{"duplicated-in-place", records(0, 0), "two records of bin 0"},
		{"missing", func() *Result { r := records(2, 0, 1); r.BinsOpened = 4; return r }(), "3 bin records for 4 bins opened"},
		{"extra", func() *Result { r := records(1, 0); r.BinsOpened = 1; return r }(), "2 bin records for 1 bins opened"},
		{"out-of-range", records(0, 3, 1), "bin 3, outside the 3 bins opened"},
		{"negative", records(-1, 0), "bin -1, outside"},
	} {
		if err := tc.r.placeBins(); err == nil || !strings.Contains(err.Error(), "internal error") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: placeBins returned %v, want an internal error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestFinishRefusesBadBinRecords: a run whose bin records, at Finish, are
// not exactly one per bin it opened fails Finish with an internal error.
func TestFinishRefusesBadBinRecords(t *testing.T) {
	l := randomList(3, 60, 2, 20)
	for _, tc := range []struct {
		name   string
		mutate func(r *Result)
	}{
		{"duplicated", func(r *Result) { r.Bins[len(r.Bins)-1].BinID = r.Bins[0].BinID }},
		{"missing", func(r *Result) { r.Bins = r.Bins[:len(r.Bins)-1] }},
		{"out-of-range", func(r *Result) { r.Bins[0].BinID = len(r.Bins) }},
	} {
		e, err := NewEngine(l, NewFirstFit())
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := e.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if len(e.res.Bins) < 2 {
			t.Fatalf("%s: %d bin records, want at least 2", tc.name, len(e.res.Bins))
		}
		tc.mutate(e.res)
		if res, err := e.Finish(); err == nil || !strings.Contains(err.Error(), "internal error") {
			t.Errorf("%s: Finish returned %v, %v; want an internal error", tc.name, res, err)
		}
	}
}
