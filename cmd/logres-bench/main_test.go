package main

import (
	"bytes"
	"testing"

	"logres/internal/bench"
)

// Run every experiment in quick mode: the tables must build without error
// and carry at least one data row each. This keeps the EXPERIMENTS.md
// driver working as the engine evolves.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("bench driver")
	}
	experiments := []struct {
		id  string
		run func(quick bool) (*bench.Table, error)
	}{
		{"E1", runE1}, {"E2", runE2}, {"E3", runE3}, {"E4", runE4},
		{"E5", runE5}, {"E6", runE6}, {"E7", runE7}, {"E8", runE8},
		{"E9", runE9}, {"E10", runE10}, {"E11", runE11},
	}
	for _, e := range experiments {
		e := e
		t.Run(e.id, func(t *testing.T) {
			tb, err := e.run(true)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			var buf bytes.Buffer
			tb.Print(&buf)
			if buf.Len() == 0 {
				t.Fatal("empty table output")
			}
		})
	}
}

func TestSizesHelper(t *testing.T) {
	full, small := []int{1, 2, 3}, []int{1}
	if got := sizes(false, full, small); len(got) != 3 {
		t.Fatal("full sizes wrong")
	}
	if got := sizes(true, full, small); len(got) != 1 {
		t.Fatal("quick sizes wrong")
	}
}

// An -only list naming an unknown experiment fails before running
// anything and names every unknown id.
func TestOnlyUnknownID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-only", "E1,E99,e98"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("run -only E1,E99,e98 exited 0")
	}
	if stdout.Len() != 0 {
		t.Fatalf("ran experiments despite unknown ids:\n%s", stdout.String())
	}
	if want := "logres-bench: unknown experiment id(s): E98, E99\n"; stderr.String() != want {
		t.Fatalf("stderr = %q, want %q", stderr.String(), want)
	}
	if _, err := selectExperiments("e1, E12"); err != nil {
		t.Fatalf("known ids rejected: %v", err)
	}
	if all, err := selectExperiments(""); err != nil || len(all) != len(experiments) {
		t.Fatalf("empty -only selected %d experiments, %v", len(all), err)
	}
}
