package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"logres/internal/value"
)

// Tests of the parallel semi-naive engine and the incremental FactSet
// caches that back it.

func edgeFact(a, b int) Fact {
	return Fact{Pred: "edge", Tuple: value.NewTuple(
		value.Field{Label: "src", Value: value.Int(int64(a))},
		value.Field{Label: "dst", Value: value.Int(int64(b))},
	)}
}

// chainEdgeFacts builds the EDB of a linear chain 0 → 1 → … → n.
func chainEdgeFacts(n int) *FactSet {
	fs := NewFactSet()
	for i := 0; i < n; i++ {
		fs.Add(edgeFact(i, i+1))
	}
	return fs
}

// Parallel evaluation must be bit-identical to serial for every worker
// count, on both random graphs and deep chains (many rounds, small deltas).
func TestParallelDeterminism(t *testing.T) {
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1}
	serial, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}

	edbs := map[string]*FactSet{
		"chain":  chainEdgeFacts(40),
		"random": randomEdgeFacts(12, 40, 7),
		"dense":  randomEdgeFacts(6, 60, 11),
		"empty":  NewFactSet(),
	}
	for name, edb := range edbs {
		for _, workers := range []int{2, 3, 8} {
			c1, c2 := int64(0), int64(0)
			serial.SetWorkers(1)
			fS, err := serial.Run(edb.Clone(), &c1)
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			parallel.SetWorkers(workers)
			fP, err := parallel.Run(edb.Clone(), &c2)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !fS.Equal(fP) {
				t.Fatalf("%s: workers=%d diverged from serial (%d vs %d facts)",
					name, workers, fS.TotalSize(), fP.TotalSize())
			}
			if c1 != c2 {
				t.Fatalf("%s: oid counters diverged: %d vs %d", name, c1, c2)
			}
		}
	}
}

// A stratified program with negation: the negated stratum still runs
// delta iteration (fully bound negation carries no adVars), and the
// parallel result must match serial exactly.
func TestParallelDeterminismNegation(t *testing.T) {
	rules := closureRules + `
same(a: X, b: Y) <- edge(src: X, dst: Y), not tc(src: Y, dst: X).
`
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1}
	p, err := tryBuild(edgeSchema, rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	edb := randomEdgeFacts(10, 35, 3)
	c1 := int64(0)
	p.SetWorkers(1)
	fS, err := p.Run(edb.Clone(), &c1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := int64(0)
	p.SetWorkers(8)
	fP, err := p.Run(edb.Clone(), &c2)
	if err != nil {
		t.Fatal(err)
	}
	if !fS.Equal(fP) {
		t.Fatalf("negation program diverged: %d vs %d facts", fS.TotalSize(), fP.TotalSize())
	}
}

// factBytes renders an evaluation result canonically — the oid counter,
// then every predicate's facts in key order — the engine-level analogue
// of Save bytes.
func factBytes(fs *FactSet, counter int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "counter %d\n", counter)
	for _, p := range fs.Preds() {
		for _, f := range fs.Facts(p) {
			b.WriteString(f.Key())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// assertMatrixMatchesSerial evaluates edb under p at workers {1,2,4} ×
// vectorize {off,on} and requires every run's bytes to equal serial row
// evaluation. The dispatch cutoff is lowered to zero so every round of a
// multi-worker run really fans out to the pool. It returns the serial
// result.
func assertMatrixMatchesSerial(t *testing.T, name string, p *Program, edb *FactSet) (*FactSet, int64) {
	t.Helper()
	old := snParallelCutoff
	snParallelCutoff = 0
	defer func() { snParallelCutoff = old }()
	defer p.SetWorkers(1)
	defer p.SetVectorize(false)

	p.SetWorkers(1)
	p.SetVectorize(false)
	c0 := int64(0)
	want, err := p.Run(edb.Clone(), &c0)
	if err != nil {
		t.Fatalf("%s serial: %v", name, err)
	}
	wantBytes := factBytes(want, c0)
	for _, workers := range []int{1, 2, 4} {
		for _, vec := range []bool{false, true} {
			p.SetWorkers(workers)
			p.SetVectorize(vec)
			c := int64(0)
			got, err := p.Run(edb.Clone(), &c)
			if err != nil {
				t.Fatalf("%s workers=%d vectorize=%v: %v", name, workers, vec, err)
			}
			if factBytes(got, c) != wantBytes {
				t.Fatalf("%s workers=%d vectorize=%v: bytes diverge from serial (%d vs %d facts, counter %d vs %d)",
					name, workers, vec, got.TotalSize(), want.TotalSize(), c, c0)
			}
		}
	}
	return want, c0
}

// The workers × vectorize matrix must be byte-identical to serial
// evaluation on eligible (semi-naive) and negation-bearing programs.
func TestParallelDeterminismMatrix(t *testing.T) {
	programs := map[string]string{
		"closure": closureRules,
		"negation": closureRules + `
same(a: X, b: Y) <- edge(src: X, dst: Y), not tc(src: Y, dst: X).
`,
	}
	for name, rules := range programs {
		p, err := tryBuild(edgeSchema, rules, Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		assertMatrixMatchesSerial(t, name+"/random", p, randomEdgeFacts(12, 60, 21))
		assertMatrixMatchesSerial(t, name+"/chain", p, chainEdgeFacts(30))
	}
}

// Non-eligible strata — deletion heads — run their matching passes on
// the worker pool (round-0 parallel matching) with effects sequenced at
// merge; results must stay byte-identical to serial.
func TestParallelDeterminismDeletion(t *testing.T) {
	schema := `
classes C = (v: integer);
associations
  SEED = (v: integer);
  KILL = (v: integer);
`
	rules := `
c(v: V) <- seed(v: V), not kill(v: V).
not c(v: V) <- kill(v: V).
`
	p, err := tryBuild(schema, rules, Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(pred string, v int) Fact {
		return Fact{Pred: pred, Tuple: value.NewTuple(
			value.Field{Label: "v", Value: value.Int(int64(v))},
		)}
	}
	edb := NewFactSet()
	for i := 0; i < 40; i++ {
		edb.Add(mk("seed", i))
		if i%3 == 0 {
			edb.Add(mk("kill", i))
		}
	}
	want, c0 := assertMatrixMatchesSerial(t, "deletion", p, edb)
	if want.Size("c") == 0 || c0 == 0 {
		t.Fatal("deletion program derived nothing")
	}
}

// A program with oid invention: inventive strata sequence their effects
// in task order, so parallel runs stay byte-identical (same oids, same
// counter).
func TestParallelDeterminismInvention(t *testing.T) {
	schema := `
classes
  NODE = (tag: integer);
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`
	rules := closureRules + `
node(self: N, tag: X) <- tc(src: X, dst: Y).
`
	p, err := tryBuild(schema, rules, Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := assertMatrixMatchesSerial(t, "invention", p, chainEdgeFacts(12))
	if want.Size("node") == 0 {
		t.Fatal("expected invented node facts")
	}
}

// Workers and per-round timings must surface through Stats and Explain.
func TestParallelStats(t *testing.T) {
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 4}
	p, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	if _, err := p.Run(chainEdgeFacts(20), &c); err != nil {
		t.Fatal(err)
	}
	st := p.LastStats()
	if st.Workers != 4 {
		t.Fatalf("Stats.Workers = %d, want 4", st.Workers)
	}
	if len(st.RoundTimings) == 0 {
		t.Fatal("expected per-round timings for a parallel run")
	}
	if st.RoundTimings[0].Tasks == 0 {
		t.Fatal("round 0 recorded zero tasks")
	}
	out := p.Explain()
	if !strings.Contains(out, "workers: 4") {
		t.Fatalf("Explain missing worker count:\n%s", out)
	}
	if !strings.Contains(out, "parallel semi-naive") {
		t.Fatalf("Explain missing parallel round summary:\n%s", out)
	}
}

// SetWorkers normalizes non-positive counts to GOMAXPROCS and Compile
// applies the same default.
func TestWorkersNormalization(t *testing.T) {
	p, err := tryBuild(edgeSchema, closureRules, Options{MaxSteps: 100, SemiNaive: true, Stratify: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() < 1 {
		t.Fatalf("default workers = %d, want >= 1", p.Workers())
	}
	p.SetWorkers(0)
	if p.Workers() < 1 {
		t.Fatalf("SetWorkers(0) left workers = %d, want >= 1", p.Workers())
	}
	p.SetWorkers(3)
	if p.Workers() != 3 {
		t.Fatalf("SetWorkers(3) left workers = %d", p.Workers())
	}
}

// Incremental cache maintenance: once a predicate's cache exists, interleaved
// Add/lookup rounds must never trigger a from-scratch rebuild (the pre-PR
// behaviour invalidated the whole cache on every Add).
func TestFactSetIncrementalCache(t *testing.T) {
	fs := NewFactSet()
	for i := 0; i < 8; i++ {
		fs.Add(edgeFact(i, i+1))
	}
	fs.Facts("edge") // build the cache
	fs.FactsByComponent("edge", "src", value.Int(0))
	base := fs.rebuilds
	for i := 8; i < 200; i++ {
		fs.Add(edgeFact(i, i+1))
		if got := fs.FactsByComponent("edge", "src", value.Int(int64(i))); len(got) != 1 {
			t.Fatalf("after add %d: bucket size %d, want 1", i, len(got))
		}
		if len(fs.Facts("edge")) != i+1 {
			t.Fatalf("after add %d: list size %d, want %d", i, len(fs.Facts("edge")), i+1)
		}
	}
	if fs.rebuilds != base {
		t.Fatalf("interleaved Add/lookup rebuilt the cache %d times, want 0", fs.rebuilds-base)
	}
	// Removals must also maintain incrementally.
	for i := 8; i < 50; i++ {
		fs.Remove(edgeFact(i, i+1))
		if got := fs.FactsByComponent("edge", "src", value.Int(int64(i))); len(got) != 0 {
			t.Fatalf("after remove %d: bucket size %d, want 0", i, len(got))
		}
	}
	if fs.rebuilds != base {
		t.Fatalf("interleaved Remove/lookup rebuilt the cache %d times, want 0", fs.rebuilds-base)
	}
	if fs.Size("edge") != 158 {
		t.Fatalf("size = %d, want 158", fs.Size("edge"))
	}

	// Clone must carry the caches copy-on-write: reads and incremental
	// writes on the clone stay rebuild-free, and the source is untouched.
	cl := fs.Clone()
	if len(cl.Facts("edge")) != fs.Size("edge") {
		t.Fatal("clone lost facts")
	}
	cl.Add(edgeFact(500, 501))
	if got := cl.FactsByComponent("edge", "src", value.Int(500)); len(got) != 1 {
		t.Fatalf("clone bucket size %d after add, want 1", len(got))
	}
	if cl.rebuilds != 0 {
		t.Fatalf("reads on a clone rebuilt the cache %d times, want 0", cl.rebuilds)
	}
	if fs.Has(edgeFact(500, 501)) {
		t.Fatal("clone mutation leaked into the source")
	}
	if got := fs.FactsByComponent("edge", "src", value.Int(500)); len(got) != 0 {
		t.Fatalf("source bucket sees clone's fact: %v", got)
	}
	if fs.rebuilds != base {
		t.Fatalf("cloning rebuilt the source cache %d times, want 0", fs.rebuilds-base)
	}

	// Compose and Minus clone internally; their results must keep the
	// caches too (the pre-PR Clone dropped all predCache state, costing an
	// O(n log n) rebuild per predicate on first read).
	small := NewFactSet()
	small.Add(edgeFact(600, 601))
	comp := fs.Compose(small)
	if got := comp.FactsByComponent("edge", "src", value.Int(600)); len(got) != 1 {
		t.Fatalf("compose bucket size %d, want 1", len(got))
	}
	if comp.rebuilds != 0 {
		t.Fatalf("Compose result rebuilt the cache %d times, want 0", comp.rebuilds)
	}
	min := fs.Minus(small)
	_ = min.Facts("edge")
	if min.rebuilds != 0 {
		t.Fatalf("Minus result rebuilt the cache %d times, want 0", min.rebuilds)
	}

	// Merge — how a parallel round folds its task deltas in — maintains
	// the views in place as well.
	deltas := []*FactSet{NewFactSet(), NewFactSet()}
	for i := 700; i < 720; i++ {
		deltas[i%2].Add(edgeFact(i, i+1))
	}
	for _, d := range deltas {
		if !fs.Merge(d) {
			t.Fatal("Merge of new facts reported no change")
		}
	}
	if got := fs.FactsByComponent("edge", "src", value.Int(719)); len(got) != 1 {
		t.Fatalf("bucket size %d after Merge, want 1", len(got))
	}
	if len(fs.Facts("edge")) != 178 {
		t.Fatalf("list size %d after Merge, want 178", len(fs.Facts("edge")))
	}
	if fs.rebuilds != base {
		t.Fatalf("Merge rebuilt the cache %d times, want 0", fs.rebuilds-base)
	}
}

// Facts() must stay in strict key order on an unfrozen set even after
// incremental appends.
func TestFactSetKeyOrderAfterAdds(t *testing.T) {
	fs := NewFactSet()
	for i := 0; i < 5; i++ {
		fs.Add(edgeFact(9-i, i))
	}
	fs.Facts("edge")
	for i := 5; i < 10; i++ {
		fs.Add(edgeFact(9-i, i))
	}
	facts := fs.Facts("edge")
	for i := 1; i < len(facts); i++ {
		if facts[i-1].Key() >= facts[i].Key() {
			t.Fatalf("facts out of key order at %d: %q >= %q", i, facts[i-1].Key(), facts[i].Key())
		}
	}
}

// Diff agrees with membership through Has, covers predicates present on
// one side only and class-fact replacement, and returns both halves in
// strict key order.
func TestFactSetDiff(t *testing.T) {
	node := func(oid, tag int64) Fact {
		return Fact{Pred: "node", IsClass: true, OID: value.OID(oid), Tuple: value.NewTuple(
			value.Field{Label: "tag", Value: value.Int(tag)},
		)}
	}
	before := randomEdgeFacts(20, 60, 1)
	before.Add(node(1, 10))
	before.Add(node(2, 20))
	before.Add(Fact{Pred: "gone", Tuple: value.NewTuple(value.Field{Label: "x", Value: value.Int(1)})})
	before.Freeze()
	after := before.Clone()
	for i := 0; i < 10; i++ {
		after.Remove(before.Facts("edge")[i*3])
		after.Add(edgeFact(100+i, 200-i))
	}
	after.Add(node(2, 21)) // ⊕ replacement: one remove, one add
	after.Add(node(3, 30))
	after.Remove(before.Facts("gone")[0])
	after.Add(Fact{Pred: "fresh", Tuple: value.NewTuple(value.Field{Label: "x", Value: value.Int(2)})})

	adds, removes := after.Diff(before)
	check := func(name string, got []Fact, in, notIn *FactSet) {
		t.Helper()
		want := 0
		for _, p := range in.Preds() {
			for _, f := range in.Facts(p) {
				if !notIn.Has(f) {
					want++
				}
			}
		}
		if len(got) != want {
			t.Fatalf("%s: %d facts, want %d", name, len(got), want)
		}
		for i, f := range got {
			if !in.Has(f) || notIn.Has(f) {
				t.Fatalf("%s: %v is not in the difference", name, f)
			}
			if i > 0 && got[i-1].Key() >= f.Key() {
				t.Fatalf("%s out of key order at %d: %q >= %q", name, i, got[i-1].Key(), f.Key())
			}
		}
	}
	check("adds", adds, after, before)
	check("removes", removes, before, after)
	if a, r := after.Diff(after.Clone()); len(a)+len(r) != 0 {
		t.Fatalf("self diff = %d adds, %d removes", len(a), len(r))
	}
}

// Class-fact replacement (⊕ right bias), by Add and by Merge, must keep the
// cache consistent.
func TestFactSetCacheClassReplace(t *testing.T) {
	fs := NewFactSet()
	mk := func(oid int64, tag int64) Fact {
		return Fact{Pred: "node", IsClass: true, OID: value.OID(oid), Tuple: value.NewTuple(
			value.Field{Label: "tag", Value: value.Int(tag)},
		)}
	}
	fs.Add(mk(1, 10))
	fs.Add(mk(2, 20))
	fs.Facts("node")
	fs.FactsByComponent("node", "tag", value.Int(10))
	fs.Add(mk(1, 11)) // same oid, new o-value: replace
	if n := len(fs.Facts("node")); n != 2 {
		t.Fatalf("list size %d after replace, want 2", n)
	}
	if got := fs.FactsByComponent("node", "tag", value.Int(10)); len(got) != 0 {
		t.Fatalf("stale bucket for replaced o-value: %v", got)
	}
	if got := fs.FactsByComponent("node", "tag", value.Int(11)); len(got) != 1 {
		t.Fatalf("missing bucket for new o-value: %v", got)
	}

	// The same ⊕ replacement through Merge, the path task deltas take:
	// oid 2 changes o-value, oid 3 is new.
	d := NewFactSet()
	d.Add(mk(2, 21))
	d.Add(mk(3, 30))
	if !fs.Merge(d) {
		t.Fatal("Merge of a replacing delta reported no change")
	}
	if n := len(fs.Facts("node")); n != 3 {
		t.Fatalf("list size %d after Merge, want 3", n)
	}
	if got := fs.FactsByComponent("node", "tag", value.Int(20)); len(got) != 0 {
		t.Fatalf("stale bucket after Merge replace: %v", got)
	}
	if got, ok := fs.HasOID("node", 2); !ok || got.Key() != mk(2, 21).Key() {
		t.Fatalf("HasOID(2) = %v, %v; want the merged o-value", got, ok)
	}
	if fs.Merge(d) {
		t.Fatal("re-merging the same delta reported a change")
	}
}

// A frozen FactSet must be safe for unsynchronized concurrent readers
// (validated under -race) and must reject mutation.
func TestFrozenConcurrentReaders(t *testing.T) {
	fs := randomEdgeFacts(20, 200, 5)
	fs.Freeze()
	if !fs.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := value.Int(int64((g*31 + i) % 20))
				_ = fs.Facts("edge")
				_ = fs.FactsByComponent("edge", "src", v)
				_ = fs.FactsByComponent("edge", "dst", v)
				_ = fs.FactsByComponent("edge", "missing", value.Null{})
				_ = fs.Has(edgeFact(i%20, (i+1)%20))
				_ = fs.Size("edge")
			}
		}(g)
	}
	wg.Wait()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add on frozen set did not panic")
			}
		}()
		fs.Add(edgeFact(99, 99))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Remove on frozen set did not panic")
			}
		}()
		fs.Remove(edgeFact(0, 1))
	}()

	fs.Thaw()
	if !fs.Add(edgeFact(99, 99)) {
		t.Fatal("Add after Thaw failed")
	}
}

// Freeze on a frozen set is a no-op; a missing label on a frozen set routes
// null lookups to the whole extension.
func TestFrozenNullComponent(t *testing.T) {
	fs := chainEdgeFacts(5)
	fs.Freeze()
	fs.Freeze()
	all := fs.FactsByComponent("edge", "nolabel", value.Null{})
	if len(all) != 5 {
		t.Fatalf("null lookup on absent label returned %d facts, want 5", len(all))
	}
	if got := fs.FactsByComponent("edge", "nolabel", value.Int(1)); got != nil {
		t.Fatalf("non-null lookup on absent label returned %v, want nil", got)
	}
	if got := fs.Facts("ghost"); got != nil {
		t.Fatalf("Facts on absent pred of frozen set returned %v, want nil", got)
	}
}

// Parallel evaluation under the race detector: the full engine path with
// many workers sharing a frozen snapshot.
func TestParallelRace(t *testing.T) {
	opts := Options{MaxSteps: 10000, SemiNaive: true, Stratify: true, Workers: 8}
	p, err := tryBuild(edgeSchema, closureRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	f, err := p.Run(randomEdgeFacts(15, 120, 9), &c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("tc") == 0 {
		t.Fatal("no closure facts derived")
	}
}

// BenchmarkFactSetIncremental measures interleaved Add + indexed lookup —
// the access pattern of a semi-naive round. Before incremental maintenance
// every Add discarded the sorted slice and component index, making each
// round O(n log n); now it is O(1) amortized per fact.
func BenchmarkFactSetIncremental(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs := NewFactSet()
				fs.Facts("edge")
				for j := 0; j < n; j++ {
					fs.Add(edgeFact(j, j+1))
					_ = fs.FactsByComponent("edge", "src", value.Int(int64(j)))
				}
			}
		})
	}
}

// BenchmarkFactSetMerge measures how a parallel round folds its worker
// deltas into the current extension: an in-order Merge of each delta.
func BenchmarkFactSetMerge(b *testing.B) {
	const baseN, deltas, perDelta = 20000, 8, 1000
	base := chainEdgeFacts(baseN)
	base.Freeze() // warm views: the steady state between rounds
	base.Thaw()
	ds := make([]*FactSet, deltas)
	for d := range ds {
		ds[d] = NewFactSet()
		for j := 0; j < perDelta; j++ {
			ds[d].Add(edgeFact(baseN+d*perDelta+j, j))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cur := base.Clone()
		cur.Facts("edge") // realistic: the view exists before the round
		b.StartTimer()
		for _, d := range ds {
			cur.Merge(d)
		}
	}
}

// BenchmarkParallelClosure compares serial and parallel chain closure.
func BenchmarkParallelClosure(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := Options{MaxSteps: 100000, SemiNaive: true, Stratify: true, Workers: workers}
			p, err := tryBuild(edgeSchema, closureRules, opts)
			if err != nil {
				b.Fatal(err)
			}
			edb := chainEdgeFacts(128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := int64(0)
				if _, err := p.Run(edb.Clone(), &c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
