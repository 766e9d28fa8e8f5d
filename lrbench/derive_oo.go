package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"logres"
)

const (
	// deriveSetups is how many times derive_oo builds its database;
	// setup_s is the median.
	deriveSetups = 101
	// deriveQueries is the number of point queries after each derivation.
	deriveQueries = 8
)

// runDeriveOO is the derive_oo workload: repeated RIDI applications of
// the lineage module on an in-memory OO database, each followed by a
// burst of point queries.
func runDeriveOO(cfg config, rep *report) error {
	setDBEnv(rep, false)
	rep.env["fsync"] = "none (in-memory)"
	rep.env["store"] = fmt.Sprintf("in-memory, %d people in %d levels, %d advising edges",
		lineageLevels*lineagePerLevel, lineageLevels, (lineageLevels-1)*lineagePerLevel*lineageAdvisors)
	base := lineageBase(cfg.seed)

	var (
		db     *logres.Database
		setups []time.Duration
	)
	for i := 0; i < deriveSetups; i++ {
		start := time.Now()
		var err error
		if db, err = openLineage(base); err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
	}
	rep.vals["setup_s"] = median(setups).Seconds()

	// Oracle: a serial from-scratch evaluation, computed once.
	ref, err := openLineage(base, logres.WithWorkers(1), logres.WithShards(1))
	if err != nil {
		return err
	}
	res, err := ref.Exec(lineageModule)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	want := answerRows(res.Answer)
	keys := lineageQueries(cfg.seed, 64)
	wantQ := map[string][]string{}
	for _, k := range keys {
		a, err := ref.Query(lineageGoal(k))
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		wantQ[k] = answerRows(a)
	}

	for i := 0; i < 2; i++ { // warm-up
		if _, err := db.Exec(lineageModule); err != nil {
			return err
		}
	}

	var (
		tr               *tracer
		acc              layerAcc
		derives, queries series
		untraced, traced samples
		checks           samples
	)
	if cfg.trace {
		tr = newTracer()
	}
	ph := startPhase()
	var (
		op     int64
		blocks []time.Duration // end offsets of each derivation and its queries
	)
	for ; ph.since() < cfg.dur; op++ {
		if op > 0 {
			blocks = append(blocks, ph.since())
		}
		traceOp := cfg.trace && op%2 == 0
		start := time.Now()
		var x *execTrace
		if traceOp {
			x, res, err = tracedApply(db, lineageModule)
		} else {
			res, err = db.Exec(lineageModule)
		}
		d := time.Since(start)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.mismatch("derivation %d: %v", op, err)
			continue
		}
		derives.addTraced(d, ph.since(), traceOp)
		checkRows(rep, "derivation", res.Answer, want)
		if traceOp {
			root := tr.add(op, 0, "op.derive", start, d, "bench")
			x.record(tr, &acc, op, root)
			traced = append(traced, d)
		} else if cfg.trace {
			untraced = append(untraced, d)
		}
		for q := 0; q < deriveQueries; q++ {
			k := keys[(int(op)*deriveQueries+q)%len(keys)]
			qStart := time.Now()
			a, err := db.Query(lineageGoal(k))
			qd := time.Since(qStart)
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.mismatch("query %q: %v", k, err)
				continue
			}
			queries.addTraced(qd, ph.since(), traceOp)
			if traceOp {
				tr.add(op, 0, "op.query", qStart, qd, "bench")
			}
			checkRows(rep, lineageGoal(k), a, wantQ[k])
		}
		if traceOp {
			t := time.Now()
			if err := db.CheckConsistency(); err != nil {
				rep.mismatch("consistency: %v", err)
			}
			checks = append(checks, time.Since(t))
		}
	}
	ph.end(rep, append(blocks, ph.since()))
	recordAlloc(rep, ph.mem, ph.mem1, len(derives.lat))
	ph.recordLoad(rep, &derives, &queries)
	rep.vals["failed_ops_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	rep.env["samples"] = fmt.Sprintf("%d derivations, %d queries", len(derives.lat), len(queries.lat))
	if !cfg.trace {
		return nil
	}
	acc.report(rep)
	rep.vals["instance.check_ms"] = ms(checks.mean())
	rep.vals["obs.trace_overhead_frac"] = ratio(float64(traced.quantile(0.5)), float64(untraced.quantile(0.5))) - 1
	t := time.Now()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		return err
	}
	rep.vals["storage.snapshot_ms"] = ms(time.Since(t))
	rep.vals["storage.snapshot_bytes"] = float64(buf.Len())
	return finishTrace(cfg, rep, tr)
}

// openLineage opens the in-memory lineage database over the base facts.
func openLineage(base string, opts ...logres.Option) (*logres.Database, error) {
	db, err := logres.Open(lineageSchema, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec(base); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return db, nil
}

// lineageGoal is the point query on one person's advisors.
func lineageGoal(person string) string {
	return fmt.Sprintf(`?- advises(adv: A, stu: "%s").`, person)
}

// checkRows is derive_oo's oracle: an answer's sorted rows must equal the
// serial from-scratch evaluation's.
func checkRows(rep *report, what string, ans *logres.Answer, want []string) {
	if got := answerRows(ans); !slices.Equal(got, want) {
		rep.mismatch("%s: %d answer rows differ from the serial evaluation's %d", what, len(got), len(want))
	}
}
