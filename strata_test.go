package logres

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// An isa declaration generates a class-head rule at the same dependency
// depth as an unrelated closure. Stratification splits the level by
// component, so the closure still runs under delta iteration — the
// chain-128 case that took seconds when the whole level ran naive.
const stratIsaSchema = `
domains
  NAME = string;
classes
  NODE = (name: NAME);
  HUB = (NODE, degree: integer);
  HUB isa NODE;
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

func stratIsaModule(n int) string {
	var b strings.Builder
	b.WriteString("mode ridi.\nrules\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  edge(src: %d, dst: %d).\n", i, i+1)
	}
	b.WriteString(`  hub(self: H, name: "h", degree: 3) <- edge(src: 0, dst: 1).
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
goal
  ?- tc(src: 0, dst: D), node(name: N).
end.
`)
	return b.String()
}

func TestStratClosureBesideIsaRunsSemiNaive(t *testing.T) {
	module := stratIsaModule(128)
	db, err := Open(stratIsaSchema, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var p Profile
	res, err := db.Exec(module, WithCallProfile(&p))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer.Rows) != 128 {
		t.Fatalf("rows = %d, want 128", len(res.Answer.Rows))
	}
	// The closure's stratum is the one whose delta curve runs the chain.
	var closure *StratumProfile
	for i := range p.Strata {
		if p.Strata[i].Rounds > 100 {
			closure = &p.Strata[i]
		}
	}
	if closure == nil {
		t.Fatalf("no stratum ran the closure: %+v", p.Strata)
	}
	if closure.Mode != "semi-naive" || closure.Fallback != "" {
		t.Fatalf("closure stratum mode %q, fallback %q; want semi-naive", closure.Mode, closure.Fallback)
	}
	var fallbacks []string
	for _, st := range p.Strata {
		if st.Fallback != "" {
			fallbacks = append(fallbacks, st.Fallback)
		}
	}
	if len(fallbacks) == 0 || !strings.Contains(strings.Join(fallbacks, ";"), "class head") {
		t.Fatalf("no stratum reports the isa rule's class head: %q", fallbacks)
	}

	naive, err := Open(stratIsaSchema, WithSemiNaive(false), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.Exec(module)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Answer, want.Answer) {
		t.Fatalf("semi-naive answer differs from WithSemiNaive(false):\n%v\n%v", res.Answer.Rows[:3], want.Answer.Rows[:3])
	}
}
