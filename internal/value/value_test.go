package value

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestOIDNil(t *testing.T) {
	if !NilOID.IsNil() {
		t.Fatal("NilOID.IsNil() = false")
	}
	if OID(7).IsNil() {
		t.Fatal("OID(7).IsNil() = true")
	}
	if got := NilOID.String(); got != "nil" {
		t.Fatalf("NilOID.String() = %q", got)
	}
	if got := OID(42).String(); got != "&42" {
		t.Fatalf("OID(42).String() = %q", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt: "integer", KindReal: "real", KindString: "string",
		KindBool: "boolean", KindOID: "oid", KindTuple: "tuple",
		KindSet: "set", KindMultiset: "multiset", KindSequence: "sequence",
		KindNull: "null",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestElementaryKeysInjective(t *testing.T) {
	vals := []Value{
		Int(-5), Int(0), Int(5), Int(1 << 40),
		Real(-3.5), Real(0), Real(2.25),
		Str(""), Str("a"), Str("ab"),
		Bool(false), Bool(true),
		Ref(0), Ref(1), Ref(99),
		Null{},
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %v and %v share key %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestIntKeyOrderMatchesValueOrder(t *testing.T) {
	f := func(a, b int64) bool {
		ka, kb := Int(a).Key(), Int(b).Key()
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		}
		return ka == kb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRealKeyOrderMatchesValueOrder(t *testing.T) {
	f := func(a, b float64) bool {
		ka, kb := Real(a).Key(), Real(b).Key()
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		case a == b:
			return ka == kb
		}
		return true // NaN involved; no ordering claim
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetDedupAndOrder(t *testing.T) {
	s := NewSet(Int(3), Int(1), Int(3), Int(2), Int(1))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	got := make([]int64, 0, 3)
	for _, e := range s.Elems() {
		got = append(got, int64(e.(Int)))
	}
	want := []int64{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("elems = %v, want %v", got, want)
	}
}

func TestSetContainsAddUnionIntersectDiff(t *testing.T) {
	s := NewSet(Int(1), Int(2))
	if !s.Contains(Int(1)) || s.Contains(Int(9)) {
		t.Fatal("Contains wrong")
	}
	s2 := s.Add(Int(3))
	if s2.Len() != 3 || s.Len() != 2 {
		t.Fatal("Add must be persistent")
	}
	if got := s.Add(Int(2)); got.Len() != 2 {
		t.Fatal("Add of existing element changed size")
	}
	u := s.Union(NewSet(Int(2), Int(4)))
	if u.Len() != 3 || !u.Contains(Int(4)) {
		t.Fatalf("Union = %v", u)
	}
	i := s.Intersect(NewSet(Int(2), Int(4)))
	if i.Len() != 1 || !i.Contains(Int(2)) {
		t.Fatalf("Intersect = %v", i)
	}
	d := s.Diff(NewSet(Int(2)))
	if d.Len() != 1 || !d.Contains(Int(1)) {
		t.Fatalf("Diff = %v", d)
	}
}

func TestMultisetKeepsDuplicates(t *testing.T) {
	m := NewMultiset(Int(2), Int(1), Int(2))
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if m.Count(Int(2)) != 2 || m.Count(Int(1)) != 1 || m.Count(Int(9)) != 0 {
		t.Fatal("Count wrong")
	}
	m2 := m.Add(Int(1))
	if m2.Count(Int(1)) != 2 || m.Count(Int(1)) != 1 {
		t.Fatal("Add must be persistent")
	}
}

func TestSequencePreservesOrder(t *testing.T) {
	q := NewSequence(Int(3), Int(1), Int(2))
	if q.Len() != 3 || q.At(0) != Int(3) || q.At(2) != Int(2) {
		t.Fatalf("sequence = %v", q)
	}
	q2 := q.Append(Int(9))
	if q2.Len() != 4 || q.Len() != 3 || q2.At(3) != Int(9) {
		t.Fatal("Append must be persistent")
	}
}

func TestSetVsMultisetVsSequenceKeysDiffer(t *testing.T) {
	es := []Value{Int(1), Int(2)}
	keys := []string{
		NewSet(es...).Key(),
		NewMultiset(es...).Key(),
		NewSequence(es...).Key(),
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Fatalf("constructor kinds %d and %d share key %q", i, j, keys[i])
			}
		}
	}
}

func TestTupleAccessors(t *testing.T) {
	tp := NewTuple(Field{"name", Str("ann")}, Field{"age", Int(3)})
	if tp.Len() != 2 {
		t.Fatalf("Len = %d", tp.Len())
	}
	v, ok := tp.Get("age")
	if !ok || v != Int(3) {
		t.Fatalf("Get(age) = %v, %v", v, ok)
	}
	if _, ok := tp.Get("missing"); ok {
		t.Fatal("Get(missing) found")
	}
	tp2 := tp.With("age", Int(4))
	if v, _ := tp2.Get("age"); v != Int(4) {
		t.Fatal("With did not replace")
	}
	if v, _ := tp.Get("age"); v != Int(3) {
		t.Fatal("With mutated the receiver")
	}
	tp3 := tp.With("extra", Bool(true))
	if tp3.Len() != 3 {
		t.Fatal("With did not append new label")
	}
}

func TestTupleKeyDistinguishesLabels(t *testing.T) {
	a := NewTuple(Field{"x", Int(1)}, Field{"y", Int(2)})
	b := NewTuple(Field{"y", Int(1)}, Field{"x", Int(2)})
	if a.Key() == b.Key() {
		t.Fatal("tuples with different labels share a key")
	}
}

// Key injectivity hazard: composite encodings must not allow a boundary
// confusion like ("ab","c") vs ("a","bc").
func TestCompositeKeyBoundaries(t *testing.T) {
	a := NewSequence(Str("ab"), Str("c"))
	b := NewSequence(Str("a"), Str("bc"))
	if a.Key() == b.Key() {
		t.Fatal("sequence key boundary collision")
	}
	c := NewTuple(Field{"ab", Str("c")})
	d := NewTuple(Field{"a", Str("bc")})
	if c.Key() == d.Key() {
		t.Fatal("tuple key boundary collision")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(NewSet(Int(1), Int(2)), NewSet(Int(2), Int(1))) {
		t.Fatal("sets with same elements must be equal")
	}
	if Equal(NewSequence(Int(1), Int(2)), NewSequence(Int(2), Int(1))) {
		t.Fatal("sequences with different order must differ")
	}
	if !Equal(nil, nil) || Equal(nil, Int(0)) || Equal(Int(0), nil) {
		t.Fatal("nil handling wrong")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Real(1.5), Real(2.5), -1},
		{Str("a"), Str("b"), -1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Ref(1), Ref(2), -1},
		{Int(1), Real(1.5), -1}, // numeric cross-kind
		{Real(0.5), Int(1), -1},
		{Int(2), Real(2), 0},
	}
	for _, c := range cases {
		if got := sign(Compare(c.a, c.b)); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestStringRendering(t *testing.T) {
	tp := NewTuple(Field{"n", Str("x")}, Field{"", Int(1)})
	if got := tp.String(); got != `(n: "x", 1)` {
		t.Fatalf("tuple string = %q", got)
	}
	if got := NewSet(Int(2), Int(1)).String(); got != "{1, 2}" {
		t.Fatalf("set string = %q", got)
	}
	if got := NewMultiset(Int(1), Int(1)).String(); got != "[1, 1]" {
		t.Fatalf("multiset string = %q", got)
	}
	if got := NewSequence(Int(2), Int(1)).String(); got != "<2, 1>" {
		t.Fatalf("sequence string = %q", got)
	}
}

// Property: set construction is order-insensitive.
func TestSetOrderInsensitiveProperty(t *testing.T) {
	f := func(xs []int64, seed int64) bool {
		vals := make([]Value, len(xs))
		for i, x := range xs {
			vals[i] = Int(x)
		}
		shuf := make([]Value, len(vals))
		copy(shuf, vals)
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		return NewSet(vals...).Key() == NewSet(shuf...).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: multiset construction is order-insensitive but multiplicity-
// sensitive.
func TestMultisetProperties(t *testing.T) {
	f := func(xs []int8) bool {
		vals := make([]Value, len(xs))
		for i, x := range xs {
			vals[i] = Int(int64(x))
		}
		rev := make([]Value, len(vals))
		for i, v := range vals {
			rev[len(vals)-1-i] = v
		}
		m1, m2 := NewMultiset(vals...), NewMultiset(rev...)
		if m1.Key() != m2.Key() {
			return false
		}
		// Total multiplicity equals input length.
		return m1.Len() == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is a consistent total order for integers that matches
// the sort of keys.
func TestCompareMatchesKeyOrder(t *testing.T) {
	f := func(xs []int64) bool {
		vals := make([]Value, len(xs))
		for i, x := range xs {
			vals[i] = Int(x)
		}
		byCompare := make([]Value, len(vals))
		copy(byCompare, vals)
		sort.SliceStable(byCompare, func(i, j int) bool { return Compare(byCompare[i], byCompare[j]) < 0 })
		byKey := make([]Value, len(vals))
		copy(byKey, vals)
		sort.SliceStable(byKey, func(i, j int) bool { return byKey[i].Key() < byKey[j].Key() })
		for i := range byCompare {
			if !Equal(byCompare[i], byKey[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAsFloatPanicsOnNonNumeric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AsFloat(Str("x"))
}

func TestIsNaN(t *testing.T) {
	if IsNaN(Int(1)) || IsNaN(Real(1)) {
		t.Fatal("false positive")
	}
}

func TestKindAndStringOfAllValues(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Int(1), KindInt, "1"},
		{Real(1.5), KindReal, "1.5"},
		{Str("x"), KindString, `"x"`},
		{Bool(true), KindBool, "true"},
		{Ref(2), KindOID, "&2"},
		{Null{}, KindNull, "null"},
		{NewTuple(Field{"a", Int(1)}), KindTuple, "(a: 1)"},
		{NewSet(Int(1)), KindSet, "{1}"},
		{NewMultiset(Int(1)), KindMultiset, "[1]"},
		{NewSequence(Int(1)), KindSequence, "<1>"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("%T string = %q, want %q", c.v, got, c.str)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestTupleFieldAccessor(t *testing.T) {
	tp := NewTuple(Field{"a", Int(1)}, Field{"b", Str("x")})
	f := tp.Field(1)
	if f.Label != "b" || f.Value != Str("x") {
		t.Fatalf("Field(1) = %v", f)
	}
	fs := tp.Fields()
	fs[0].Value = Int(99)
	if v, _ := tp.Get("a"); v != Int(1) {
		t.Fatal("Fields() aliases internal storage")
	}
}

func TestMultisetSequenceElems(t *testing.T) {
	m := NewMultiset(Int(2), Int(1), Int(2))
	if len(m.Elems()) != 3 {
		t.Fatalf("multiset elems = %v", m.Elems())
	}
	q := NewSequence(Int(9), Int(8))
	if len(q.Elems()) != 2 || q.Elems()[0] != Int(9) {
		t.Fatalf("sequence elems = %v", q.Elems())
	}
}

// Property: Equal agrees with key equality across every kind, including
// the pairs the direct comparisons must not short-circuit — Int against
// Real, Null against everything, -0.0 against 0.0, NaN against NaN.
func TestEqualMatchesKeyEquality(t *testing.T) {
	pool := []Value{
		Int(0), Int(1), Int(-1), Int(1 << 40),
		Real(0), Real(math.Copysign(0, -1)), Real(1), Real(-1), Real(math.NaN()), Real(math.Inf(1)),
		Str(""), Str("1"), Str("a"), Str("a\x00"),
		Bool(false), Bool(true),
		Ref(0), Ref(1), Ref(2),
		Null{},
		NewTuple(Field{Label: "a", Value: Int(1)}), NewTuple(Field{Label: "a", Value: Real(1)}),
		NewSet(Int(1), Int(2)), NewSet(Int(2), Int(1)), NewMultiset(Int(1), Int(1)),
		NewSequence(Int(1), Int(2)), NewSequence(Str("1")),
	}
	for _, a := range pool {
		for _, b := range pool {
			if got, want := Equal(a, b), a.Key() == b.Key(); got != want {
				t.Errorf("Equal(%v (%T), %v (%T)) = %v, key equality %v", a, a, b, b, got, want)
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	draw := func() Value {
		switch r.Intn(6) {
		case 0:
			return Int(r.Int63n(4))
		case 1:
			return Real(float64(r.Int63n(4)))
		case 2:
			return Str(string(rune('0' + r.Intn(4))))
		case 3:
			return Bool(r.Intn(2) == 0)
		case 4:
			return Ref(r.Int63n(4))
		}
		return Null{}
	}
	for i := 0; i < 5000; i++ {
		a, b := draw(), draw()
		if got, want := Equal(a, b), a.Key() == b.Key(); got != want {
			t.Fatalf("Equal(%v (%T), %v (%T)) = %v, key equality %v", a, a, b, b, got, want)
		}
	}
}
