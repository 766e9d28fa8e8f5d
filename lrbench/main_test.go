package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"logres"
)

func TestSameSeedSameInputs(t *testing.T) {
	type inputs struct {
		Enrolls []enroll
		Stream  []enroll
		Lineage string
		Keys    []string
		Writes  []string
		Reads   [][2]int
	}
	gen := func(seed uint64) inputs {
		in := inputs{
			Enrolls: registrarEnrollments(seed),
			Lineage: lineageBase(seed),
			Keys:    lineageQueries(seed, 16),
		}
		s := newEnrollStream(seed)
		w := newIVMWriter(seed)
		r := ivmReader(seed)
		for i := 0; i < 32; i++ {
			in.Stream = append(in.Stream, s.next())
			op, src := w.next()
			w.apply(op)
			in.Writes = append(in.Writes, src)
			c, k := r()
			in.Reads = append(in.Reads, [2]int{c, k})
		}
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	for name, differs := range map[string]bool{
		"enrollments": !reflect.DeepEqual(a.Enrolls, c.Enrolls),
		"stream":      !reflect.DeepEqual(a.Stream, c.Stream),
		"lineage":     a.Lineage != c.Lineage,
		"keys":        !reflect.DeepEqual(a.Keys, c.Keys),
		"writes":      !reflect.DeepEqual(a.Writes, c.Writes),
		"reads":       !reflect.DeepEqual(a.Reads, c.Reads),
	} {
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric lists mirror.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(defs))
		}
		for i := 0; i < len(listed) && i < len(defs); i++ {
			if listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], the benchmark emits %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)
	seen := map[string]bool{}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q [%s]: malformed name or unit", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q is listed twice", d.name)
		}
		seen[d.name] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, untraced and
// traced: each must pass its oracles, set only listed metrics, and give
// every end-to-end metric a nonzero value.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	listed := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), e2eMetrics...), layerMetrics...) {
		listed[d.name] = true
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				rep := newReport()
				rep.env["workload"] = name
				cfg := config{seed: 3, dur: 300 * time.Millisecond, trace: trace, dir: t.TempDir()}
				if err := workloads[name](cfg, rep); err != nil {
					t.Fatal(err)
				}
				if len(rep.mismatches) > 0 || rep.failed > 0 {
					t.Fatalf("%d failed of %d; mismatches: %v", rep.failed, rep.attempted, rep.mismatches)
				}
				for k := range rep.vals {
					if !listed[k] {
						t.Errorf("sets unlisted metric %q", k)
					}
				}
				if trace {
					return
				}
				res := rep.result(e2eMetrics)
				for _, d := range e2eMetrics {
					if v := res.Metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
						t.Errorf("%s = %v [%s], want a positive value in %s", d.name, v.Value, v.Unit, d.unit)
					}
				}
			})
		}
	}
}

func TestQuantiles(t *testing.T) {
	var s samples
	for i := 1; i <= 101; i++ {
		s = append(s, time.Duration(i))
	}
	if got := s.quantile(0.5); got != 51 {
		t.Errorf("p50 = %d, want 51", got)
	}
	if got := s.quantile(0.9); got != 91 {
		t.Errorf("p90 = %d, want 91", got)
	}
}

// TestQuietWindows checks that quantiles and rates come from the
// windows with the least stolen CPU time.
func TestQuietWindows(t *testing.T) {
	p := &phase{steal: []float64{0.2, 0, 0.1, 0, 0.3, 0}}
	for w := range p.steal {
		p.windows = append(p.windows, time.Duration(w+1)*time.Second)
	}
	var s series
	for w := range p.steal {
		for i := 0; i < 10; i++ {
			d := time.Duration(100 + i)
			if p.steal[w] > 0 {
				d *= 10 // slowed by the stolen time
			}
			s.add(d, time.Duration(w)*time.Second+time.Duration(i+1)*time.Second/10)
		}
	}
	// The three windows with no steal hold half of the samples.
	if got := p.quantile(&s, 0.9); got != 108 {
		t.Errorf("p90 = %d, want 108", got)
	}
	if got := p.rate(&s); got != 10 {
		t.Errorf("rate = %v, want 10", got)
	}
	// With nothing stolen every window counts.
	p.steal = make([]float64, 6)
	if got := p.quantile(&s, 0.9); got != 1071 {
		t.Errorf("p90 without steal = %d, want 1071", got)
	}
	// Traced samples never count.
	var mixed series
	for i := 0; i < 40; i++ {
		mixed.addTraced(time.Duration(100+i%2*900), time.Duration(i)*time.Second/8, i%2 == 1)
	}
	if got := p.quantile(&mixed, 0.9); got != 100 {
		t.Errorf("p90 with traced samples = %d, want 100", got)
	}
}

// TestIVMWriterStaysFlat checks that every writer block ends on the
// preload, so serve_ivm's state does not grow with the number of
// commits a run completes.
func TestIVMWriterStaysFlat(t *testing.T) {
	w := newIVMWriter(1)
	for b := 0; b < 50; b++ {
		for i := 0; i < ivmBlock; i++ {
			op, src := w.next()
			if op.remove != (i == ivmBlock-1) {
				t.Fatalf("block %d, commit %d: remove = %t", b, i, op.remove)
			}
			if op.remove && strings.Count(src, "not ") != ivmBlock-1 {
				t.Fatalf("block %d: removal %q does not delete the block's links", b, src)
			}
			w.apply(op)
		}
		for c, n := range w.lens {
			if n != ivmChainLen {
				t.Fatalf("after block %d chain %d has %d links, want %d", b, c, n, ivmChainLen)
			}
		}
	}
}

func TestCommitOracleRejectsCorruption(t *testing.T) {
	enrolls := registrarEnrollments(1)
	facts := make([]string, len(enrolls))
	for i, e := range enrolls {
		facts[i] = e.fact()
	}
	db, err := setupRegistrar(filepath.Join(t.TempDir(), "db"), ridv(facts...))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model := newRegistrarModel(enrolls)
	ans, err := db.Query(passedGoal(enrolls[0].student))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	save := buf.Bytes()

	rep := newReport()
	model.checkPassed(rep, enrolls[0].student, ans)
	if err := model.checkRecovered(rep, save, db); err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) > 0 {
		t.Fatalf("uncorrupted state rejected: %v", rep.mismatches)
	}

	corrupt := append([]byte(nil), save...)
	corrupt[len(corrupt)/2] ^= 1
	rep = newReport()
	if err := model.checkRecovered(rep, corrupt, db); err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 1 {
		t.Errorf("flipped Save byte: %d mismatches, want 1", len(rep.mismatches))
	}

	// An acknowledged commit the store lost, and a passed course the
	// answer lacks.
	model.add(enroll{student: enrolls[0].student, code: "lost", grade: 30})
	rep = newReport()
	model.checkPassed(rep, enrolls[0].student, ans)
	if err := model.checkRecovered(rep, save, db); err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 2 {
		t.Errorf("lost commit: %d mismatches, want 2: %v", len(rep.mismatches), rep.mismatches)
	}
}

func TestDeriveOracleRejectsCorruption(t *testing.T) {
	db, err := openLineage(lineageBase(1), logres.WithWorkers(1), logres.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(lineageModule)
	if err != nil {
		t.Fatal(err)
	}
	want := answerRows(res.Answer)
	rep := newReport()
	checkRows(rep, "derivation", res.Answer, want)
	if len(rep.mismatches) > 0 {
		t.Fatalf("serial answer rejected: %v", rep.mismatches)
	}
	res.Answer.Rows = res.Answer.Rows[1:]
	checkRows(rep, "derivation", res.Answer, want)
	if len(rep.mismatches) != 1 {
		t.Errorf("answer missing a row: %d mismatches, want 1", len(rep.mismatches))
	}
}

func TestServeOracleRejectsCorruption(t *testing.T) {
	if err := checkChainRun([][]string{{`"c1_4"`}, {`"c1_5"`}}, 1, 3); err != nil {
		t.Errorf("contiguous run rejected: %v", err)
	}
	for _, rows := range [][][]string{
		{{`"c1_4"`}, {`"c1_6"`}}, // gap
		{{`"c2_4"`}},             // other chain
		{{`"c1_5"`}},             // does not start after the source
	} {
		if checkChainRun(rows, 1, 3) == nil {
			t.Errorf("%v accepted as the run after c1_3", rows)
		}
	}

	x, err := startIVM(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer x.stop()
	folded, err := reachKeys(x.db)
	if err != nil {
		t.Fatal(err)
	}
	w := newIVMWriter(1)
	rep := newReport()
	if err := checkIVM(context.Background(), rep, x, w, folded); err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) > 0 {
		t.Fatalf("served state rejected: %v", rep.mismatches)
	}
	for k := range folded {
		delete(folded, k) // a missed diff
		break
	}
	w.lens[0]++ // an acknowledged commit the database lost
	if err := checkIVM(context.Background(), rep, x, w, folded); err != nil {
		t.Fatal(err)
	}
	if len(rep.mismatches) != 2 {
		t.Errorf("corrupted fold and lost commit: %d mismatches, want 2: %v", len(rep.mismatches), rep.mismatches)
	}
}
