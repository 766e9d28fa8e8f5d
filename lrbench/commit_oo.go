package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"logres"
)

// commitSetups is how many times commit_oo builds its store; setup_s is
// the median.
const commitSetups = 21

// commitWarmup is the number of facts inserted before the loops start;
// the loops then alternate an insert with a delete of the oldest
// inserted fact, so the state size stays flat.
const commitWarmup = 8

// commitBlock is the number of commits in a block, the unit of the quiet
// windows and of the traced run's interleaving; the loops run whole
// blocks.
const commitBlock = 8

// runCommitOO is the commit_oo workload: serial one-fact Exec commits on
// a durable registrar database, each followed by one point query.
func runCommitOO(cfg config, rep *report) error {
	setDBEnv(rep, false)
	rep.env["fsync"] = "always"
	rep.env["store"] = fmt.Sprintf("durable, %d students, %d instructors, %d enroll facts",
		registrarStudents, registrarInstructors, registrarEnrolls)
	enrolls := registrarEnrollments(cfg.seed)
	facts := make([]string, len(enrolls))
	for i, e := range enrolls {
		facts[i] = e.fact()
	}
	preload := ridv(facts...)

	var (
		db     *logres.Database
		dir    string
		setups []time.Duration
	)
	closeStore := func() {
		if db != nil {
			db.Close()
			os.RemoveAll(dir)
			db = nil
		}
	}
	defer closeStore()
	for i := 0; i < commitSetups; i++ {
		closeStore()
		var err error
		if dir, err = os.MkdirTemp(cfg.dir, "commit_oo-"); err != nil {
			return err
		}
		start := time.Now()
		if db, err = setupRegistrar(filepath.Join(dir, "db"), preload); err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
	}
	rep.vals["setup_s"] = median(setups).Seconds()

	model := newRegistrarModel(enrolls)
	stream := newEnrollStream(cfg.seed)
	var live []enroll // inserted by this run and not yet deleted, oldest first
	// next is the op-th commit of a loop: even ones insert a fresh fact,
	// odd ones delete the oldest live one.
	next := func(op int64) (enroll, string) {
		if op%2 == 0 {
			e := stream.next()
			return e, ridv(e.fact())
		}
		return live[0], ridv("not " + live[0].fact())
	}
	ack := func(op int64, e enroll) {
		if op%2 == 0 {
			model.add(e)
			live = append(live, e)
		} else {
			model.remove(e)
			live = live[1:]
		}
	}
	for i := 0; i < commitWarmup; i++ {
		e := stream.next()
		if _, err := db.Exec(ridv(e.fact())); err != nil {
			return fmt.Errorf("warm-up commit: %w", err)
		}
		model.add(e)
		live = append(live, e)
	}
	// Untimed warm-up on the timed loop's operations, so the heap and the
	// caches have settled when timing starts.
	warm := time.Now()
	for op := int64(0); time.Since(warm) < warmupDur || op%commitBlock != 0; op++ {
		e, src := next(op)
		if _, err := db.Exec(src); err != nil {
			return fmt.Errorf("warm-up commit: %w", err)
		}
		ack(op, e)
		if _, err := db.Query(passedGoal(e.student)); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}

	var (
		tr               *tracer
		acc              layerAcc
		commits, queries series
		untraced, traced samples
		checks           samples
	)
	if cfg.trace {
		tr = newTracer()
	}
	ph := startPhase()
	var (
		op     int64
		blocks []time.Duration // end offsets of the blocks of 8 commits
	)
	for ; ph.since() < cfg.dur || op%commitBlock != 0; op++ {
		if op > 0 && op%commitBlock == 0 {
			blocks = append(blocks, ph.since())
		}
		e, src := next(op)
		// Traced runs trace every other block, leaving the rest
		// untraced to measure the tracing overhead.
		traceOp := cfg.trace && (op/commitBlock)%2 == 0
		start := time.Now()
		var (
			x   *execTrace
			err error
		)
		if traceOp {
			x, _, err = tracedApply(db, src)
		} else {
			_, err = db.Exec(src)
		}
		d := time.Since(start)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.mismatch("commit %d: %v", op, err)
			continue
		}
		commits.addTraced(d, ph.since(), traceOp)
		ack(op, e)

		qStart := time.Now()
		ans, err := db.Query(passedGoal(e.student))
		qd := time.Since(qStart)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.mismatch("query %d: %v", op, err)
			continue
		}
		queries.addTraced(qd, ph.since(), traceOp)
		if traceOp {
			root := tr.add(op, 0, "op.commit", start, time.Since(start), "bench")
			x.record(tr, &acc, op, root)
			tr.add(op, root, "logres.query", qStart, qd, "bench")
			traced = append(traced, d+qd)
		} else if cfg.trace {
			untraced = append(untraced, d+qd)
		}
		model.checkPassed(rep, e.student, ans)
		if cfg.trace && op%16 == 0 {
			t := time.Now()
			if err := db.CheckConsistency(); err != nil {
				rep.mismatch("consistency after commit %d: %v", op, err)
			}
			checks = append(checks, time.Since(t))
		}
	}
	ph.end(rep, append(blocks, ph.since()))
	recordAlloc(rep, ph.mem, ph.mem1, len(commits.lat))
	ph.recordLoad(rep, &commits, &queries)
	rep.env["samples"] = fmt.Sprintf("%d commits, %d queries", len(commits.lat), len(queries.lat))

	// Durability: the reopened store must hold exactly the acknowledged
	// state, byte for byte.
	var before bytes.Buffer
	start := time.Now()
	if err := db.Save(&before); err != nil {
		return err
	}
	rep.vals["storage.snapshot_ms"] = ms(time.Since(start))
	rep.vals["storage.snapshot_bytes"] = float64(before.Len())
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	start = time.Now()
	reopened, rec, err := logres.OpenDurable(registrarSchema, logres.Durability{Dir: filepath.Join(dir, "db")})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	db = reopened
	rep.vals["recover_ms"] = ms(time.Since(start))
	if rec != nil {
		rep.vals["storage.replay_records"] = float64(rec.Replayed)
	}
	if err := model.checkRecovered(rep, before.Bytes(), db); err != nil {
		return err
	}

	rep.vals["failed_ops_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	if cfg.trace {
		acc.report(rep)
		rep.vals["instance.check_ms"] = ms(checks.mean())
		rep.vals["obs.trace_overhead_frac"] = ratio(float64(traced.quantile(0.5)), float64(untraced.quantile(0.5))) - 1
		return finishTrace(cfg, rep, tr)
	}
	return nil
}

// passedGoal is the point query on one student's passed courses.
func passedGoal(student int) string {
	return fmt.Sprintf(`?- passed(name: "s%d", code: C).`, student)
}

// setupRegistrar builds the registrar store: objects, enrollments, view.
func setupRegistrar(dir, preload string) (*logres.Database, error) {
	db, _, err := logres.OpenDurable(registrarSchema, logres.Durability{Dir: dir})
	if err != nil {
		return nil, err
	}
	for _, src := range []string{registrarPeople(), preload, registrarView} {
		if _, err := db.Exec(src); err != nil {
			db.Close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return db, nil
}

// registrarModel is the oracle for commit_oo: the ENROLL facts every
// acknowledged commit left behind.
type registrarModel struct{ facts map[enroll]bool }

func newRegistrarModel(pre []enroll) *registrarModel {
	m := &registrarModel{facts: map[enroll]bool{}}
	for _, e := range pre {
		m.add(e)
	}
	return m
}

func (m *registrarModel) add(e enroll)    { m.facts[e] = true }
func (m *registrarModel) remove(e enroll) { delete(m.facts, e) }

// passed is the expected answer of passed(name: s<student>, code: C): the
// sorted codes with grade >= 18.
func (m *registrarModel) passed(student int) []string {
	var out []string
	for e := range m.facts {
		if e.student == student && e.grade >= 18 {
			out = append(out, fmt.Sprintf("%q", e.code))
		}
	}
	sort.Strings(out)
	return out
}

// enrollRows is the expected answer of enroll(name: N, code: C, grade: G)
// in answerRows form.
func (m *registrarModel) enrollRows() []string {
	var out []string
	for e := range m.facts {
		out = append(out, fmt.Sprintf(`"s%d"|%q|%d`, e.student, e.code, e.grade))
	}
	sort.Strings(out)
	return out
}

// checkPassed is the per-query oracle: the point query on a student must
// list exactly the model's passed courses.
func (m *registrarModel) checkPassed(rep *report, student int, ans *logres.Answer) {
	if got, want := answerColumn(ans, 0), m.passed(student); !slices.Equal(got, want) {
		rep.mismatch("passed(s%d) = %v, want %v", student, got, want)
	}
}

// checkRecovered is the durability oracle: the reopened store's Save
// bytes must equal those before the close, and its ENROLL facts must be
// exactly the ones every acknowledged commit left.
func (m *registrarModel) checkRecovered(rep *report, before []byte, db *logres.Database) error {
	var after bytes.Buffer
	if err := db.Save(&after); err != nil {
		return err
	}
	if !bytes.Equal(before, after.Bytes()) {
		rep.mismatch("recovered Save bytes differ from the pre-close state (%d vs %d bytes)", after.Len(), len(before))
	}
	ans, err := db.Query(`?- enroll(name: N, code: C, grade: G).`)
	if err != nil {
		return err
	}
	if got, want := answerRows(ans), m.enrollRows(); !slices.Equal(got, want) {
		rep.mismatch("recovered enroll facts: %d rows, want the %d acknowledged", len(got), len(want))
	}
	return nil
}

// answerColumn returns column i of every row, rendered and sorted.
func answerColumn(ans *logres.Answer, i int) []string {
	var out []string
	for _, row := range ans.Rows {
		out = append(out, row[i].String())
	}
	sort.Strings(out)
	return out
}

// answerRows renders every row as its values joined by "|", sorted.
func answerRows(ans *logres.Answer) []string {
	out := make([]string, len(ans.Rows))
	for i, row := range ans.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	sort.Strings(out)
	return out
}
