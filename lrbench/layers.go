package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"logres"
	"logres/client"
	"logres/internal/engine"
)

// setDBEnv records the database options the workloads run on: the
// library defaults as they resolve on this machine.
func setDBEnv(rep *report, incremental bool) {
	o := engine.DefaultOptions()
	rep.env["db_options"] = fmt.Sprintf("workers=%d shards=%d incremental=%t vectorize=%t seminaive=%t",
		o.Workers, o.Shards, incremental, o.Vectorize, o.SemiNaive)
}

// profileSummary is what the per-layer metrics read from one call's
// profile, in-process (logres.Profile) or over the wire (client.Profile).
type profileSummary struct {
	eval, syncWait                           time.Duration
	rounds, firings, added                   int
	naive, seminaive, kernelRows             int
	walAppends, walSyncs, retries, fastPaths int
	walBytes                                 int64
}

func summarize(p *logres.Profile) profileSummary {
	s := profileSummary{
		eval: time.Duration(p.EvalNS), syncWait: time.Duration(p.WALSyncWaitNS),
		rounds: p.Rounds, firings: p.Firings,
		walAppends: p.WALAppends, walSyncs: p.WALSyncs, walBytes: p.WALBytes,
		retries: p.Retries,
	}
	if p.CommitPath == "fast" {
		s.fastPaths = 1
	}
	for _, st := range p.Strata {
		s.addStratum(st.Mode, st.Delta)
		for _, k := range st.Kernels {
			s.kernelRows += k.Rows
		}
	}
	return s
}

// summarizeWire reads a profile that came over the wire; the wire form
// shares the in-process form's JSON encoding.
func summarizeWire(p *client.Profile) (profileSummary, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return profileSummary{}, err
	}
	var q logres.Profile
	if err := json.Unmarshal(b, &q); err != nil {
		return profileSummary{}, err
	}
	return summarize(&q), nil
}

func (s *profileSummary) addStratum(mode string, delta []int) {
	if strings.HasPrefix(mode, "semi-naive") {
		s.seminaive++
	} else {
		s.naive++
	}
	for _, d := range delta {
		s.added += d
	}
}

// layerAcc accumulates the traced operations' layer measurements.
type layerAcc struct {
	ops          int
	parse, apply time.Duration
	sum          profileSummary
}

func (a *layerAcc) add(parse, apply time.Duration, p profileSummary) {
	a.ops++
	a.parse += parse
	a.apply += apply
	s := &a.sum
	s.eval += p.eval
	s.syncWait += p.syncWait
	s.rounds += p.rounds
	s.firings += p.firings
	s.added += p.added
	s.naive += p.naive
	s.seminaive += p.seminaive
	s.kernelRows += p.kernelRows
	s.walAppends += p.walAppends
	s.walSyncs += p.walSyncs
	s.retries += p.retries
	s.fastPaths += p.fastPaths
	s.walBytes += p.walBytes
}

// report sets the per-operation means of the accumulated layers.
func (a *layerAcc) report(rep *report) {
	n := float64(a.ops)
	s := a.sum
	per := func(v float64) float64 { return ratio(v, n) }
	rep.vals["parser.parse_us"] = per(us(a.parse))
	rep.vals["module.apply_ms"] = per(ms(a.apply))
	rep.vals["module.apply_self_ms"] = per(ms(a.apply - s.eval - s.syncWait))
	rep.vals["module.retries_per_commit"] = per(float64(s.retries))
	rep.vals["module.fast_path_frac"] = per(float64(s.fastPaths))
	rep.vals["engine.eval_ms"] = per(ms(s.eval))
	rep.vals["engine.rounds_per_op"] = per(float64(s.rounds))
	rep.vals["engine.firings_per_op"] = per(float64(s.firings))
	rep.vals["engine.facts_per_firing"] = ratio(float64(s.added), float64(s.firings))
	rep.vals["engine.naive_strata"] = per(float64(s.naive))
	rep.vals["engine.seminaive_strata"] = per(float64(s.seminaive))
	rep.vals["colset.kernel_rows_per_op"] = per(float64(s.kernelRows))
	rep.vals["storage.wal_appends_per_commit"] = per(float64(s.walAppends))
	rep.vals["storage.fsyncs_per_commit"] = per(float64(s.walSyncs))
	rep.vals["storage.fsync_wait_us"] = per(us(s.syncWait))
	rep.vals["wal_bytes_per_commit"] = per(float64(s.walBytes))
}

// execTrace is one traced module application: the benchmark parses the
// source and applies the parsed module itself, timing each call, and
// asks the program for the call's profile.
type execTrace struct {
	parseStart, applyStart time.Time
	parse, apply           time.Duration
	prof                   logres.Profile
}

// tracedApply is Exec split at the parser/module boundary.
func tracedApply(db *logres.Database, src string) (*execTrace, *logres.Result, error) {
	x := &execTrace{parseStart: time.Now()}
	m, err := logres.ParseModule(src)
	x.parse = time.Since(x.parseStart)
	if err != nil {
		return x, nil, err
	}
	x.applyStart = time.Now()
	res, err := db.Apply(m, m.Mode, logres.WithCallProfile(&x.prof))
	x.apply = time.Since(x.applyStart)
	return x, res, err
}

// record adds the application's spans under parent and its measurements
// to acc.
func (x *execTrace) record(tr *tracer, acc *layerAcc, op int64, parent int) {
	s := summarize(&x.prof)
	acc.add(x.parse, x.apply, s)
	tr.add(op, parent, "parser.parse", x.parseStart, x.parse, "bench")
	apply := tr.add(op, parent, "module.apply", x.applyStart, x.apply, "bench")
	tr.add(op, apply, "engine.eval", x.applyStart, s.eval, "profile")
	tr.add(op, apply, "storage.fsync_wait", x.applyStart, s.syncWait, "profile")
}

// finishTrace writes the run's spans and adds the self-time table to the
// printed notes.
func finishTrace(cfg config, rep *report, tr *tracer) error {
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", rep.env["workload"], cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	var b bytes.Buffer
	tr.printSelfTimes(&b)
	rep.notes = append(rep.notes, strings.Split(strings.TrimRight(b.String(), "\n"), "\n")...)
	rep.notes = append(rep.notes, "# spans: "+path)
	return nil
}
