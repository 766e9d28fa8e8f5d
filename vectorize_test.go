package logres

import (
	"fmt"
	"strings"
	"testing"
)

// Top-level differential property: the persisted database — Save's
// exact byte stream — must be identical whether evaluation ran on the
// row engine or the columnar engine, for every worker count. This is the end-to-end counterpart of the engine-level
// matrix test (internal/engine/vector_test.go): it covers parsing,
// module application, storage, and serialization on top of evaluation.

const vecMatrixSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  SAME = (a: integer, b: integer);
`

const vecMatrixModule = `
mode ridv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  same(a: X, b: Y) <- edge(src: X, dst: Y), not tc(src: Y, dst: X).
end.
`

func vecMatrixEdges() string {
	var sb strings.Builder
	sb.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&sb, "  edge(src: %d, dst: %d).\n", i, i+1)
	}
	// A back edge so the negation in SAME has both outcomes.
	sb.WriteString("  edge(src: 24, dst: 0).\nend.\n")
	return sb.String()
}

func vecMatrixSave(t *testing.T, workers int, vectorize bool) string {
	t.Helper()
	db, err := Open(vecMatrixSchema, WithWorkers(workers), WithVectorize(vectorize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(vecMatrixEdges()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(vecMatrixModule); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := db.Save(&sb2{&sb}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestVectorizedSaveBytesMatrix(t *testing.T) {
	oracle := vecMatrixSave(t, 1, false)
	if !strings.Contains(oracle, "tc") {
		t.Fatal("oracle run derived nothing")
	}
	for _, workers := range []int{1, 2, 4} {
		for _, vec := range []bool{false, true} {
			got := vecMatrixSave(t, workers, vec)
			if got != oracle {
				t.Fatalf("workers=%d vectorize=%v: Save bytes diverge from row serial", workers, vec)
			}
		}
	}
}
