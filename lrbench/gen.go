package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// Input generators. Every input derives from the seed through these
// functions alone, so one seed always yields the same inputs; sizes are
// fixed, so the work per operation does not depend on the seed.

// newRand returns the generator of one input stream of a seed.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// ridv wraps facts (one per line, without the final period) into a
// data-variant module.
func ridv(facts ...string) string {
	var b strings.Builder
	b.WriteString("mode ridv.\nrules\n")
	for _, f := range facts {
		b.WriteString("  ")
		b.WriteString(f)
		b.WriteString(".\n")
	}
	b.WriteString("end.\n")
	return b.String()
}

// --- commit_oo ------------------------------------------------------------

const (
	registrarStudents    = 200
	registrarInstructors = 10
	registrarEnrolls     = 2000
	registrarCourses     = 100
)

const registrarSchema = `
domains
  NAME = string;
  CODE = string;
  GRADE = integer;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, year: integer);
  INSTRUCTOR = (PERSON, field: string);
  STUDENT isa PERSON;
  INSTRUCTOR isa PERSON;
associations
  INTAKE = (name: NAME, kind: string);
  ENROLL = (name: NAME, code: CODE, grade: GRADE);
  PASSED = (name: NAME, code: CODE);
`

// registrarPeople invents the STUDENT and INSTRUCTOR objects.
func registrarPeople() string {
	var facts []string
	for i := 0; i < registrarStudents; i++ {
		facts = append(facts, fmt.Sprintf(`intake(name: "s%d", kind: "student")`, i))
	}
	for i := 0; i < registrarInstructors; i++ {
		facts = append(facts, fmt.Sprintf(`intake(name: "i%d", kind: "instructor")`, i))
	}
	facts = append(facts,
		`student(self: S, name: N, year: 1) <- intake(name: N, kind: "student")`,
		`instructor(self: I, name: N, field: "db") <- intake(name: N, kind: "instructor")`)
	return ridv(facts...)
}

// registrarView is the persistent non-recursive view the point query
// reads.
const registrarView = `mode radi.
rules
  passed(name: N, code: C) <- enroll(name: N, code: C, grade: G), student(name: N), G >= 18.
end.
`

// enroll is one ENROLL fact.
type enroll struct {
	student int
	code    string
	grade   int
}

func (e enroll) fact() string {
	return fmt.Sprintf(`enroll(name: "s%d", code: "%s", grade: %d)`, e.student, e.code, e.grade)
}

// registrarEnrollments draws the preloaded ENROLL facts: distinct
// (student, course) pairs with grades in 10..30.
func registrarEnrollments(seed uint64) []enroll {
	r := newRand(seed, 1)
	seen := map[[2]int]bool{}
	var out []enroll
	for len(out) < registrarEnrolls {
		s, c := r.IntN(registrarStudents), r.IntN(registrarCourses)
		if seen[[2]int{s, c}] {
			continue
		}
		seen[[2]int{s, c}] = true
		out = append(out, enroll{s, fmt.Sprintf("c%d", c), 10 + r.IntN(21)})
	}
	return out
}

// enrollStream yields the facts the timed loop inserts, in order: the
// i-th has the fresh course code "n<i>", so it never collides with the
// preload or with another insert.
type enrollStream struct {
	r *rand.Rand
	i int
}

func newEnrollStream(seed uint64) *enrollStream { return &enrollStream{r: newRand(seed, 2)} }

func (s *enrollStream) next() enroll {
	e := enroll{s.r.IntN(registrarStudents), fmt.Sprintf("n%d", s.i), 10 + s.r.IntN(21)}
	s.i++
	return e
}

// --- derive_oo ------------------------------------------------------------

const (
	lineageLevels   = 15
	lineagePerLevel = 10
	// lineageAdvisors is the advisor count of every person below the top
	// level. Two random advisors per person saturate the ancestor sets,
	// so the closure size barely depends on which advisors were drawn.
	lineageAdvisors = 2
	// lineageProfLevels are the levels whose people are PROFESSORs.
	lineageProfLevels = 2
)

const lineageSchema = `
domains
  NAME = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, year: integer);
  PROFESSOR = (PERSON, field: string);
  STUDENT isa PERSON;
  PROFESSOR isa PERSON;
associations
  INTAKE = (name: NAME, kind: string);
  ADVISES = (adv: NAME, stu: NAME);
  LINEAGE = (anc: NAME, des: NAME);
  DESCSET = (anc: NAME, des: {NAME});
  MENTOR = (name: NAME);
  LEAF = (name: NAME);
functions
  DESC: NAME -> {NAME};
`

// lineageModule is the analytic module derive_oo applies: it invents the
// people from the intake facts, computes the advising closure, nests each
// mentor's descendants through DESC, and negates MENTOR one stratum up.
const lineageModule = `mode ridi.
rules
  student(self: S, name: N, year: 1) <- intake(name: N, kind: "student").
  professor(self: P, name: N, field: "db") <- intake(name: N, kind: "professor").
  lineage(anc: A, des: D) <- advises(adv: A, stu: D).
  lineage(anc: A, des: D) <- lineage(anc: A, des: M), advises(adv: M, stu: D).
  member(D, desc(A)) <- lineage(anc: A, des: D).
  mentor(name: A) <- lineage(anc: A).
  descset(anc: A, des: S) <- mentor(name: A), S = desc(A).
  leaf(name: N) <- person(name: N), not mentor(name: N).
goal
  ?- descset(anc: A, des: S), not leaf(name: A).
end.
`

// lineagePerson names the i-th person of a level.
func lineagePerson(level, i int) string { return fmt.Sprintf("p%d_%d", level, i) }

// lineageBase draws the extensional base: the intake facts and a random
// layered advising graph in which everyone below the top level has
// lineageAdvisors distinct advisors one level up.
func lineageBase(seed uint64) string {
	r := newRand(seed, 3)
	var facts []string
	for l := 0; l < lineageLevels; l++ {
		kind := "student"
		if l < lineageProfLevels {
			kind = "professor"
		}
		for i := 0; i < lineagePerLevel; i++ {
			facts = append(facts, fmt.Sprintf(`intake(name: "%s", kind: "%s")`, lineagePerson(l, i), kind))
		}
	}
	for l := 1; l < lineageLevels; l++ {
		for i := 0; i < lineagePerLevel; i++ {
			for _, a := range r.Perm(lineagePerLevel)[:lineageAdvisors] {
				facts = append(facts, fmt.Sprintf(`advises(adv: "%s", stu: "%s")`,
					lineagePerson(l-1, a), lineagePerson(l, i)))
			}
		}
	}
	return ridv(facts...)
}

// lineageQueries draws the point-query keys: n people below the top level.
func lineageQueries(seed uint64, n int) []string {
	r := newRand(seed, 4)
	out := make([]string, n)
	for i := range out {
		out[i] = lineagePerson(1+r.IntN(lineageLevels-1), r.IntN(lineagePerLevel))
	}
	return out
}

// --- serve_ivm ------------------------------------------------------------

const (
	ivmChains   = 64
	ivmChainLen = 32
)

const ivmSchema = `
domains
  NODE = string;
associations
  LINK = (src: NODE, dst: NODE);
  REACH = (src: NODE, dst: NODE);
`

const ivmRules = `mode radi.
rules
  reach(src: X, dst: Y) <- link(src: X, dst: Y).
  reach(src: X, dst: Z) <- reach(src: X, dst: Y), link(src: Y, dst: Z).
end.
`

func ivmNode(chain, i int) string { return fmt.Sprintf("c%d_%d", chain, i) }

func ivmLink(chain, i int) string {
	return fmt.Sprintf(`link(src: "%s", dst: "%s")`, ivmNode(chain, i), ivmNode(chain, i+1))
}

// ivmBase is the preload: ivmChains disjoint chains of ivmChainLen links.
func ivmBase() string {
	var facts []string
	for c := 0; c < ivmChains; c++ {
		for i := 0; i < ivmChainLen; i++ {
			facts = append(facts, ivmLink(c, i))
		}
	}
	return ridv(facts...)
}

// ivmBlock is the length of the writer's block of commits.
const ivmBlock = 8

// ivmWrite is one writer commit: the links (chain, i), each from node i
// to node i+1, that it adds or (remove) deletes.
type ivmWrite struct {
	links  [][2]int
	remove bool
}

// ivmWriter draws the writer's commits in blocks of ivmBlock: each of
// the first ivmBlock-1 extends a random chain's tail by one link, and
// the last deletes the links the block added, a delete/rederive that
// takes every chain back to its preload length. The served state is
// therefore the preload at every block boundary and never more than
// ivmBlock-1 links beyond it, however many commits a run completes, and
// the fixed share keeps the removals' weight in the latency quantiles
// the same in every run. lens tracks each chain's link count and added
// the open block's links as the commits are acknowledged.
type ivmWriter struct {
	r     *rand.Rand
	n     int
	lens  []int
	added [][2]int
}

func newIVMWriter(seed uint64) *ivmWriter {
	lens := make([]int, ivmChains)
	for i := range lens {
		lens[i] = ivmChainLen
	}
	return &ivmWriter{r: newRand(seed, 5), lens: lens}
}

// next draws a commit and its module source.
func (w *ivmWriter) next() (ivmWrite, string) {
	last := w.n%ivmBlock == ivmBlock-1
	w.n++
	if last && len(w.added) > 0 {
		op := ivmWrite{links: w.added, remove: true}
		facts := make([]string, len(op.links))
		for i, l := range op.links {
			facts[i] = "not " + ivmLink(l[0], l[1])
		}
		return op, ridv(facts...)
	}
	c := w.r.IntN(ivmChains)
	l := [2]int{c, w.lens[c]}
	return ivmWrite{links: [][2]int{l}}, ridv(ivmLink(l[0], l[1]))
}

// blockOpen reports whether the writer is inside a block.
func (w *ivmWriter) blockOpen() bool { return w.n%ivmBlock != 0 }

// apply records that a drawn commit was acknowledged.
func (w *ivmWriter) apply(op ivmWrite) {
	if op.remove {
		for _, l := range op.links {
			w.lens[l[0]]--
		}
		w.added = nil
		return
	}
	w.lens[op.links[0][0]]++
	w.added = append(w.added, op.links[0])
}

// ivmReader draws the reader's point-query keys: a random node among the
// first ivmChainLen+1 of a random chain.
func ivmReader(seed uint64) func() (chain, i int) {
	r := newRand(seed, 6)
	return func() (int, int) { return r.IntN(ivmChains), r.IntN(ivmChainLen + 1) }
}
