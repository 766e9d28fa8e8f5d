package engine

import (
	"fmt"
	"strings"
	"testing"

	"logres/internal/ast"
	"logres/internal/value"
)

// Differential tests of the component-split stratification: every depth
// level is divided into its semi-naive-eligible components and the rest
// (splitLevel). The joint layout — one stratum per level — is rebuilt
// here with computeStrata(false) and serves as the oracle: both layouts
// must produce identical fact sets and oid counters for every
// workers × vectorize configuration.

const stratSchema = `
domains
  N = integer;
classes
  NODE = (id: N);
  HUB = (NODE, rank: integer);
  HUB isa NODE;
associations
  EDGE = (src: N, dst: N);
  TC = (src: N, dst: N);
  SEED = (id: N);
  MARK = (id: N);
  REACH = (src: N, dst: N);
  LONELY = (id: N);
functions
  OUT: N -> {N};
`

// stratPrograms pairs each program with the extensional facts it runs
// over (written as fact rules, evaluated once into the EDB), whether the
// split must leave every level joint, and whether the split closure's
// sub-stratum compiles to the columnar path.
var stratPrograms = []struct {
	name, edb, rules string
	joint, columnar  bool
}{
	{
		// The generated node <- hub rule (a class head) shares depth 1
		// with the closure.
		name:     "isa-closure",
		edb:      `seed(id: 1). seed(id: 4). hub(self: H, id: I, rank: 2) <- seed(id: I).`,
		rules:    closureRules + `mark(id: X) <- node(id: X), tc(src: X, dst: X).`,
		columnar: true,
	},
	{
		// Oid invention shares depth 1 with the closure; the isa rule
		// and a reader of both sit above.
		name: "invent-closure",
		edb:  `seed(id: 1). seed(id: 4). seed(id: 7).`,
		rules: closureRules + `
hub(self: H, id: I, rank: 1) <- seed(id: I).
mark(id: X) <- node(id: X), tc(src: X, dst: _).
`,
		columnar: true,
	},
	{
		// A data-function member head beside class heads and the
		// closure; the function is read one level up.
		name: "func-beside-class",
		edb:  `seed(id: 2). seed(id: 3). hub(self: H, id: I, rank: 2) <- seed(id: I).`,
		rules: closureRules + `
member(Y, out(X)) <- edge(src: X, dst: Y).
reach(src: X, dst: Y) <- node(id: X), S = out(X), member(Y, S).
`,
	},
	{
		// A deletion beside the closure, read (negated) one level up.
		name: "delete-closure",
		edb:  `seed(id: 1). seed(id: 2). mark(id: 1). mark(id: 3). mark(id: 5).`,
		rules: closureRules + `
not mark(id: X) <- seed(id: X).
lonely(id: X) <- mark(id: X), not tc(src: X, dst: X).
`,
		columnar: true,
	},
	{
		// An active-domain negation: the level's one-step operator reads
		// the whole current fact set, so it must stay joint. Inventing
		// per enumerated value makes the oid numbering depend on when
		// reach's shifted values enter the domain.
		name: "adneg-joint",
		edb:  `seed(id: 3). mark(id: 2).`,
		rules: closureRules + `
reach(src: X, dst: Y) <- edge(src: X, dst: Z), Y = Z - 100.
hub(self: H, id: X, rank: 1) <- not mark(id: X).
`,
		joint: true,
	},
}

// stratEDB evaluates src into an extensional fact set and returns it
// with the oid counter it left behind.
func stratEDB(t *testing.T, src string, edges *FactSet) (*FactSet, int64) {
	t.Helper()
	p, err := tryBuild(stratSchema, src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	counter := int64(0)
	f, err := p.Run(edges, &counter)
	if err != nil {
		t.Fatal(err)
	}
	return f, counter
}

func TestStratSplitMatchesJoint(t *testing.T) {
	graphs := map[string]*FactSet{
		"chain":  chainEdgeFacts(12),
		"random": randomEdgeFacts(9, 24, 3),
	}
	for _, tc := range stratPrograms {
		for gname, edges := range graphs {
			edb, c0 := stratEDB(t, tc.edb, edges)
			split, err := tryBuild(stratSchema, tc.rules, DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			joint, err := tryBuild(stratSchema, tc.rules, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			joint.computeStrata(false)
			if tc.joint != (len(split.strata) == len(joint.strata)) {
				t.Fatalf("%s: split %d strata, joint %d (want joint layout: %v)",
					tc.name, len(split.strata), len(joint.strata), tc.joint)
			}

			joint.SetWorkers(1)
			wantCounter := c0
			want, err := joint.Run(edb, &wantCounter)
			if err != nil {
				t.Fatalf("%s/%s joint oracle: %v", tc.name, gname, err)
			}
			for _, p := range []*Program{split, joint} {
				layout := "joint"
				if p == split {
					layout = "split"
				}
				for _, w := range []int{1, 2} {
					for _, vec := range []bool{false, true} {
						p.SetWorkers(w)
						p.SetVectorize(vec)
						counter := c0
						got, err := p.Run(edb, &counter)
						if err != nil {
							t.Fatalf("%s/%s %s w%d vec=%v: %v", tc.name, gname, layout, w, vec, err)
						}
						if !got.Equal(want) || counter != wantCounter {
							t.Fatalf("%s/%s %s w%d vec=%v: %d facts, counter %d; joint serial %d facts, counter %d",
								tc.name, gname, layout, w, vec, got.TotalSize(), counter, want.TotalSize(), wantCounter)
						}
						if p == split && vec && tc.columnar && p.LastStats().VectorizedStrata == 0 {
							t.Fatalf("%s/%s split vec: no stratum ran vectorized", tc.name, gname)
						}
					}
				}
			}
		}
	}
}

// The split emits the eligible sub-stratum first and keeps p.rules order
// inside each sub-stratum; the closure beside an isa rule runs semi-naive.
func TestStratSplitLayout(t *testing.T) {
	p := build(t, stratSchema, closureRules+`
hub(self: H, id: I, rank: 1) <- seed(id: I).
mark(id: X) <- node(id: X), tc(src: X, dst: _).
`)
	var layout []string
	for i, s := range p.strata {
		var preds []string
		for _, r := range s {
			preds = append(preds, r.head.pred)
		}
		layout = append(layout, fmt.Sprintf("%s[%s]", strings.Join(preds, ","), p.stratumFallback(i)))
	}
	got := strings.Join(layout, " ")
	want := "tc,tc[] hub[oid invention in rule #2] node[class head in rule #4] mark[]"
	if got != want {
		t.Fatalf("layout:\n got %s\nwant %s", got, want)
	}
	counter := int64(0)
	if _, err := p.Run(chainEdgeFacts(8), &counter); err != nil {
		t.Fatal(err)
	}
	if st := p.LastStats(); st.SemiNaiveStrata != 2 || st.Strata != 4 {
		t.Fatalf("semi-naive strata %d of %d, want 2 of 4", st.SemiNaiveStrata, st.Strata)
	}
	out := p.Explain()
	for _, frag := range []string{
		"stratum 0 (semi-naive):",
		"stratum 1 (one-step inflationary, fallback: oid invention in rule #2):",
		"stratum 2 (one-step inflationary, fallback: class head in rule #4):",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Explain lacks %q:\n%s", frag, out)
		}
	}
}

// Unstratified programs and Stratify=false keep a single stratum.
func TestStratNoSplitWithoutStratification(t *testing.T) {
	opts := DefaultOptions()
	opts.Stratify = false
	p, err := tryBuild(stratSchema, closureRules+`hub(self: H, id: I, rank: 1) <- seed(id: I).`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.strata) != 1 {
		t.Fatalf("Stratify off: %d strata, want 1", len(p.strata))
	}
	if fb := p.stratumFallback(0); fb != "oid invention in rule #2" {
		t.Fatalf("fallback = %q", fb)
	}
}

func TestSemiNaiveFallbackReasons(t *testing.T) {
	cases := []struct{ rules, want string }{
		{closureRules, ""},
		{`not mark(id: X) <- seed(id: X).`, "deletion in rule #0"},
		{`hub(self: H, id: I, rank: 1) <- seed(id: I).`, "oid invention in rule #0"},
		{`lonely(id: X) <- not mark(id: X).`, "active-domain negation in rule #0"},
		{`member(Y, out(X)) <- edge(src: X, dst: Y).
member(Z, out(X)) <- edge(src: X, dst: Y), S = out(Y), member(Z, S).`, "same-stratum function read in rule #1"},
	}
	for _, tc := range cases {
		p := build(t, stratSchema, tc.rules)
		// Rule #0 is the first rule under test (the generated isa rule
		// has its own stratum).
		got := "rule #0 in no stratum"
		for i, s := range p.strata {
			for _, r := range s {
				if r.id == 0 {
					got = p.stratumFallback(i)
				}
			}
		}
		if got != tc.want {
			t.Errorf("%s: fallback %q, want %q", tc.rules, got, tc.want)
		}
	}
	if got := semiNaiveFallback([]*crule{{}}); got.reason != FallbackNoHead {
		t.Errorf("headless rule: fallback %q", got)
	}
	opts := DefaultOptions()
	opts.SemiNaive = false
	p, err := tryBuild(stratSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.stratumFallback(0); got != string(FallbackDisabled) {
		t.Errorf("semi-naive off: fallback %q", got)
	}
}

// evalFuncApp looks its argument up through the component index; it must
// return exactly the members a full scan with value.Equal finds, on
// unfrozen and frozen sets, for present, absent and null arguments, and
// for nullary functions.
func TestEvalFuncAppIndexed(t *testing.T) {
	fact := func(pred string, arg, member value.Value) Fact {
		var fields []value.Field
		if arg != nil {
			fields = append(fields, value.Field{Label: FuncArgLabel, Value: arg})
		}
		fields = append(fields, value.Field{Label: FuncMemberLabel, Value: member})
		return Fact{Pred: pred, Tuple: value.NewTuple(fields...)}
	}
	f := NewFactSet()
	for a := 0; a < 5; a++ {
		for m := 0; m <= a; m++ {
			f.Add(fact("out", value.Int(int64(a)), value.Int(int64(10*a+m))))
		}
	}
	f.Add(fact("out", value.Null{}, value.Int(99)))
	f.Add(fact("out", value.Str("1"), value.Int(98)))
	f.Add(fact("junior", nil, value.Str("ann")))
	f.Add(fact("junior", nil, value.Str("bob")))

	scan := func(name string, arg value.Value) value.Value {
		var members []value.Value
		for _, fc := range f.Facts(name) {
			if arg != nil {
				got, ok := fc.Tuple.Get(FuncArgLabel)
				if !ok || !value.Equal(got, arg) {
					continue
				}
			}
			m, _ := fc.Tuple.Get(FuncMemberLabel)
			members = append(members, m)
		}
		return value.NewSet(members...)
	}
	args := []value.Value{value.Int(0), value.Int(3), value.Int(4), value.Int(7), value.Real(3),
		value.Str("1"), value.Null{}}
	for _, frozen := range []bool{false, true} {
		if frozen {
			f.Freeze()
		}
		for _, a := range args {
			app := ast.FuncApp{Name: "out", Args: []ast.Term{ast.Const{Val: a}}}
			got, err := evalFuncApp(app, newEnv(), f)
			if err != nil {
				t.Fatal(err)
			}
			if want := scan("out", a); !value.Equal(got, want) {
				t.Errorf("frozen=%v out(%v) = %v, want %v", frozen, a, got, want)
			}
		}
		got, err := evalFuncApp(ast.FuncApp{Name: "junior"}, newEnv(), f)
		if err != nil {
			t.Fatal(err)
		}
		if want := scan("junior", nil); !value.Equal(got, want) || got.(value.Set).Len() != 2 {
			t.Errorf("frozen=%v junior() = %v, want %v", frozen, got, want)
		}
		// An argument applied to a nullary function's extension finds no
		// fact carrying it — null included.
		got, err = evalFuncApp(ast.FuncApp{Name: "junior", Args: []ast.Term{ast.Const{Val: value.Null{}}}}, newEnv(), f)
		if err != nil {
			t.Fatal(err)
		}
		if got.(value.Set).Len() != 0 {
			t.Errorf("frozen=%v junior(null) = %v, want {}", frozen, got)
		}
	}
}

// Emitting the eligible sub-stratum first lets the incrementally
// maintained prefix cover a closure that shares its depth with an isa
// rule; the joint layout leaves nothing to maintain.
func TestStratSplitGrowsMaintainedPrefix(t *testing.T) {
	rules := closureRules + `mark(id: X) <- node(id: X), tc(src: X, dst: X).`
	edb, counter := stratEDB(t, `seed(id: 1). hub(self: H, id: I, rank: 2) <- seed(id: I).`, chainEdgeFacts(6))
	edb.Freeze()
	for _, split := range []bool{true, false} {
		p, err := tryBuild(stratSchema, rules, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p.computeStrata(split)
		m, err := NewMaintainer(p, edb, counter)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if split {
			want = 1
		}
		if prefix, total := m.EligibleStrata(); prefix != want {
			t.Fatalf("split=%v: maintained prefix %d of %d, want %d", split, prefix, total, want)
		}
	}
}
