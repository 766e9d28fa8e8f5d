package engine

import (
	"testing"

	"logres/internal/obs"
)

// Tests of trace-driven parallel dispatch: rounds whose live probe size
// is under snParallelCutoff must run inline — zero parallel.dispatch
// events — while big rounds still fan out, and both paths stay
// bit-identical to serial.

func runWithDispatchMetrics(t *testing.T, edb *FactSet, workers int) (*FactSet, int64) {
	t.Helper()
	m := obs.NewMetrics()
	p, err := tryBuild(edgeSchema, closureRules,
		Options{MaxSteps: 10000, SemiNaive: true, Stratify: true,
			Workers: workers, Tracer: m.Tracer()})
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	f, err := p.Run(edb, &c)
	if err != nil {
		t.Fatal(err)
	}
	return f, m.Counter("logres_parallel_dispatches_total").Value()
}

func TestTinyRoundsRecordZeroParallelDispatches(t *testing.T) {
	if snParallelCutoff < 30 {
		t.Skip("cutoff lowered elsewhere")
	}
	f, dispatches := runWithDispatchMetrics(t, chainEdgeFacts(20), 4)
	if dispatches != 0 {
		t.Fatalf("chain-20 with workers=4 recorded %d parallel dispatches, want 0 (all rounds under the cutoff)", dispatches)
	}
	serial, _ := runWithDispatchMetrics(t, chainEdgeFacts(20), 1)
	if !f.Equal(serial) {
		t.Fatal("inline small-round path diverged from serial")
	}
}

func TestBigRoundsStillDispatch(t *testing.T) {
	// With the cutoff lowered, the early rounds (probe ≥ 8) fan out
	// while the convergence tail (delta shrinking below 8 facts per
	// round) runs inline — both in one run.
	old := snParallelCutoff
	snParallelCutoff = 8
	defer func() { snParallelCutoff = old }()
	f, dispatches := runWithDispatchMetrics(t, chainEdgeFacts(40), 4)
	if dispatches == 0 {
		t.Fatal("chain-40 with cutoff 8 recorded no parallel dispatches")
	}
	serial, _ := runWithDispatchMetrics(t, chainEdgeFacts(40), 1)
	if !f.Equal(serial) {
		t.Fatal("mixed inline/fan-out run diverged from serial")
	}
}

// Lowering the cutoff to zero restores unconditional fan-out, and the
// result is still identical — the inline path is an optimization, not a
// semantic switch.
func TestDispatchCutoffZeroRestoresFanOut(t *testing.T) {
	old := snParallelCutoff
	snParallelCutoff = 0
	defer func() { snParallelCutoff = old }()
	f, dispatches := runWithDispatchMetrics(t, chainEdgeFacts(20), 4)
	if dispatches == 0 {
		t.Fatal("cutoff 0 still skipped fan-out")
	}
	snParallelCutoff = old
	g, _ := runWithDispatchMetrics(t, chainEdgeFacts(20), 4)
	if !f.Equal(g) {
		t.Fatal("fan-out and inline paths disagree")
	}
}
