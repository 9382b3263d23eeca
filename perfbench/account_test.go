package main

import (
	"errors"
	"testing"

	"smtmlp"
	"smtmlp/internal/core"
)

func TestAccountCellsCountsEveryFailedRound(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name                       string
		missing, executed          int
		err, mismatch              error
		attempted, failed, counted int
	}{
		{"clean", 10, 10, nil, nil, 10, 0, 10},
		{"some cells failed", 10, 7, nil, nil, 10, 3, 7},
		{"stopped midway", 10, 4, boom, nil, 10, 6, 0},
		{"stopped before expanding the spec", 0, 0, boom, nil, 1, 1, 0},
		{"stopped after every cell ran", 10, 10, boom, nil, 10, 1, 0},
		{"store differs from ground truth", 10, 10, nil, boom, 10, 10, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReport()
			counted := r.accountCells("round", tc.missing, tc.executed, tc.err, tc.mismatch)
			if r.attempted != tc.attempted || r.failed != tc.failed || counted != tc.counted {
				t.Errorf("attempted %d, failed %d, counted %d; want %d, %d, %d",
					r.attempted, r.failed, counted, tc.attempted, tc.failed, tc.counted)
			}
		})
	}
}

func TestSameRunComparesCyclesAndCommitted(t *testing.T) {
	want := map[string]smtmlp.WorkloadResult{
		"a": {Cycles: 100, Threads: []smtmlp.ThreadResult{{Committed: 40}, {Committed: 50}}},
	}
	for _, tc := range []struct {
		name string
		fp   string
		got  core.Result
		ok   bool
	}{
		{"same", "a", core.Result{Cycles: 100, Committed: []uint64{40, 50}}, true},
		{"other cycles", "a", core.Result{Cycles: 101, Committed: []uint64{40, 50}}, false},
		{"other committed", "a", core.Result{Cycles: 100, Committed: []uint64{40, 51}}, false},
		{"other thread count", "a", core.Result{Cycles: 100, Committed: []uint64{40}}, false},
		{"no recorded result", "b", core.Result{Cycles: 100, Committed: []uint64{40, 50}}, false},
	} {
		if err := sameRun(tc.got, want, tc.fp); (err == nil) != tc.ok {
			t.Errorf("%s: sameRun = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
