package main

import (
	"fmt"

	"kwagg"
)

// outcome renders a query's answer or its error, so a reference engine that
// fails the same way counts as agreeing.
func outcome(e *kwagg.Engine, q string, k int) string {
	got, _, err := answerSet(e, q, k)
	if err != nil {
		return "error: " + err.Error()
	}
	return got
}

// checkLive compares the live engine after its last commit with a fresh
// Load+Open of the saved data plus every committed row, in commit order,
// on the dataset's hot queries.
func checkLive(e *kwagg.Engine, ds *dataset, dir string, committed [][]tableRows, k int, rep *report) error {
	if got := e.Epoch(); got != uint64(len(committed)) || e.PendingRows() != 0 {
		rep.mismatch("live engine at epoch %d with %d pending rows after %d commits",
			got, e.PendingRows(), len(committed))
	}
	d, err := kwagg.Load(dir)
	if err != nil {
		return fmt.Errorf("reference load: %w", err)
	}
	for _, b := range committed {
		for _, tr := range b {
			for _, row := range tr.rows {
				if err := d.Insert(tr.table, row...); err != nil {
					return fmt.Errorf("reference insert into %s: %w", tr.table, err)
				}
			}
		}
	}
	opts := referenceOptions
	opts.ViewNames = ds.hints
	ref, err := kwagg.Open(d, &opts)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	for _, q := range ds.hot {
		if got, want := outcome(e, q, k), outcome(ref, q, k); got != want {
			rep.mismatch("%q: live answer after the last commit differs from a fresh open", q)
		}
	}
	return nil
}
