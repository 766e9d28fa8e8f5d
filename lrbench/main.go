// Command lrbench is the LOGRES benchmark: one process drives one of three
// workloads through the public APIs of the logres packages, checks every
// answer against an oracle, and prints its metrics as one JSON object on
// the last line of standard output.
//
//	go run . --workload commit_oo --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 the run is traced (spans around the benchmark's own calls into
// each layer, plus the program's profiles and metrics) and the object
// carries the per-layer metrics. README.md explains the workloads and
// what each metric predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run, on every workload. "op"
// is the workload's primary operation: a one-fact commit on commit_oo and
// serve_ivm, one analytic RIDI module on derive_oo.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"query_p50_us", "us"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
}

// layerMetrics are printed by every traced run. A metric a workload does
// not exercise reads 0 there (README.md lists where each applies).
var layerMetrics = []metricDef{
	{"op_p90_ms", "ms"},
	{"query_p90_us", "us"},
	{"query_p99_us", "us"},
	{"queries_per_s", "1/s"},
	{"notify_p50_ms", "ms"},
	{"notify_p90_ms", "ms"},
	{"wal_bytes_per_commit", "B"},
	{"recover_ms", "ms"},
	{"failed_ops_frac", "frac"},
	{"parser.parse_us", "us"},
	{"module.apply_ms", "ms"},
	{"module.apply_self_ms", "ms"},
	{"module.retries_per_commit", "count"},
	{"module.fast_path_frac", "frac"},
	{"engine.eval_ms", "ms"},
	{"engine.rounds_per_op", "count"},
	{"engine.firings_per_op", "count"},
	{"engine.facts_per_firing", "frac"},
	{"engine.naive_strata", "count"},
	{"engine.seminaive_strata", "count"},
	{"engine.ivm_propagate_ms", "ms"},
	{"engine.ivm_delta_facts_per_commit", "count"},
	{"engine.ivm_rebuilds", "count"},
	{"colset.kernel_rows_per_op", "count"},
	{"instance.check_ms", "ms"},
	{"storage.wal_appends_per_commit", "count"},
	{"storage.fsyncs_per_commit", "count"},
	{"storage.fsync_wait_us", "us"},
	{"storage.snapshot_ms", "ms"},
	{"storage.snapshot_bytes", "B"},
	{"storage.replay_records", "count"},
	{"server.exec_handler_us", "us"},
	{"server.query_handler_us", "us"},
	{"client.overhead_us", "us"},
	{"logres.sub_emits_per_commit", "count"},
	{"logres.sub_slow_drops", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"obs.trace_overhead_frac", "frac"},
}

// config is one run's settings.
type config struct {
	seed  uint64
	dur   time.Duration
	trace bool
	// dir holds the run's stores, removed when it ends, and the traced
	// run's span file.
	dir string
}

// workload runs one workload and fills rep.
type workload func(cfg config, rep *report) error

var workloads = map[string]workload{
	"commit_oo": runCommitOO,
	"derive_oo": runDeriveOO,
	"serve_ivm": runServeIVM,
}

// report is what a workload measured. Metrics missing from vals print as
// 0; mismatches collects every oracle failure.
type report struct {
	attempted, failed int
	mismatches        []string
	vals              map[string]float64
	env               map[string]string
	// notes are extra comment lines printed after the header.
	notes []string
}

func newReport() *report {
	return &report{vals: map[string]float64{}, env: map[string]string{}}
}

// mismatch records an oracle failure.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the report for the given metric set.
func (r *report) result(defs []metricDef) result {
	out := result{
		Correct:   len(r.mismatches) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.vals[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	name := flag.String("workload", "", "workload: commit_oo, derive_oo or serve_ivm")
	seed := flag.Uint64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lrbench: want --workload %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	dir := filepath.Join(".bench_build", "lrbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lrbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: dir}
	rep := newReport()
	rep.env["workload"] = *name
	err := w(cfg, rep)
	printHeader(cfg, rep.env)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	res := rep.result(defs)
	for _, m := range rep.mismatches {
		fmt.Fprintln(os.Stderr, "lrbench: oracle mismatch:", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHeader prints the environment record: machine, toolchain,
// source revision, seed and the database options as they resolved.
func printHeader(cfg config, env map[string]string) {
	env["nproc"] = fmt.Sprint(runtime.NumCPU())
	env["gomaxprocs"] = fmt.Sprint(runtime.GOMAXPROCS(0))
	env["go"] = runtime.Version()
	env["commit"] = gitCommit()
	env["cpu"] = cpuModel()
	env["seed"] = fmt.Sprint(cfg.seed)
	env["seconds"] = fmt.Sprint(cfg.dur.Seconds())
	env["trace"] = fmt.Sprint(cfg.trace)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %s\n", k, env[k])
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file is absent).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the source revision from a .git directory in the
// working directory, or "unknown" (a checkout without git metadata).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
