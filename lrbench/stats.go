package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// samples are raw latencies kept by the benchmark itself, so quantiles
// are exact rather than read off the program's log₂ histograms.
type samples []time.Duration

// quantile is the q-quantile by linear interpolation between order
// statistics (0 for no samples).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// warmupDur is the untimed warm-up the commit workloads run before
// timing starts.
const warmupDur = 2 * time.Second

// series is one kind of operation's latencies with the offsets from
// the phase start at which each completed. In a traced run, traced
// marks the operations that ran traced (or in-process), which the
// reported figures leave out: they are the untraced program's.
type series struct {
	lat    samples
	ends   []time.Duration
	traced []bool
}

func (s *series) add(d, end time.Duration) { s.addTraced(d, end, false) }

func (s *series) addTraced(d, end time.Duration, traced bool) {
	s.lat = append(s.lat, d)
	s.ends = append(s.ends, end)
	s.traced = append(s.traced, traced)
}

// memMark is a reading of the allocation counters.
type memMark struct{ totalAlloc, numGC uint64 }

func readMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.TotalAlloc, uint64(m.NumGC)}
}

// recordAlloc sets alloc_kb_per_op and runtime.gc_cycles_per_op: the
// allocation and the collections from a to b, per operation.
func recordAlloc(rep *report, a, b memMark, ops int) {
	rep.vals["alloc_kb_per_op"] = ratio(float64(b.totalAlloc-a.totalAlloc)/1024, float64(ops))
	rep.vals["runtime.gc_cycles_per_op"] = ratio(float64(b.numGC-a.numGC), float64(ops))
}

// Steal tracking. The reference machine is a VM whose hypervisor steals
// from a few to a few tens of percent of its CPU time in bursts of
// seconds, slowing everything that runs then. Latency quantiles and
// rates are therefore taken over the phase's quietest windows (by stolen
// share), rather than over the whole phase: the quietest windows that
// together hold at least a third of the samples (and at least quietMin,
// or all of them), and every window that lost no more than quietFloor of
// its CPU time. Where little or nothing is stolen, as on bare metal,
// the whole phase counts. A window is one block of the
// workload's primary operations (8 commits, or one derivation, with the
// queries that completed in it), so that every window holds the same mix
// of operations and a rate over whole windows has no partial operation
// at its edges.
//
// Steal accrues only while a vCPU is runnable, so a window in which the
// program demands more CPU would collect more of it. The stolen share is
// therefore taken of the CPU time demanded (busy plus stolen, that is
// everything but idle and iowait), not of the window's total, so that it
// measures the hypervisor's contention rather than the program's load.
const (
	quietTick  = 100 * time.Millisecond
	quietMin   = 20
	quietFloor = 0.03
)

// stealPoint is one reading of the machine's CPU counters.
type stealPoint struct {
	at            time.Duration
	steal, demand uint64
}

// phase is a timed phase: its start, the memory readings at its start
// and end, the steal samples taken during it, and its windows.
type phase struct {
	begin      time.Time
	mem, mem1  memMark
	stop, done chan struct{}
	points     []stealPoint
	// Set by end: each window's end offset and stolen share.
	windows []time.Duration
	steal   []float64
}

// startPhase starts the timed phase and its steal sampler.
func startPhase() *phase {
	p := &phase{begin: time.Now(), mem: readMem(), stop: make(chan struct{}), done: make(chan struct{})}
	go p.sample()
	return p
}

func (p *phase) sample() {
	defer close(p.done)
	tick := time.NewTicker(quietTick)
	defer tick.Stop()
	for {
		steal, demand := cpuTimes()
		p.points = append(p.points, stealPoint{time.Since(p.begin), steal, demand})
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// since is the offset of now from the phase start.
func (p *phase) since() time.Duration { return time.Since(p.begin) }

// end stops the phase, reads the allocation counters (the workload
// passes them to recordAlloc), sets heap_live_mb after a forced
// collection, and records the stolen share in the header. windows are
// the end offsets of the phase's blocks of operations, in order; an
// offset past the last one counts in the last window.
func (p *phase) end(rep *report, windows []time.Duration) {
	p.mem1 = readMem()
	close(p.stop)
	<-p.done
	steal, demand := cpuTimes()
	p.points = append(p.points, stealPoint{time.Since(p.begin), steal, demand})
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.vals["heap_live_mb"] = float64(m.HeapAlloc) / (1 << 20)

	p.windows = windows
	if len(p.windows) == 0 {
		p.windows = []time.Duration{p.points[len(p.points)-1].at}
	}
	n := len(p.windows)
	stolen, all := make([]uint64, n), make([]uint64, n)
	for i := 1; i < len(p.points); i++ {
		w := p.window(p.points[i].at)
		stolen[w] += p.points[i].steal - p.points[i-1].steal
		all[w] += p.points[i].demand - p.points[i-1].demand
	}
	p.steal = make([]float64, n)
	for w := range p.steal {
		p.steal[w] = ratio(float64(stolen[w]), float64(all[w]))
	}
	first, last := p.points[0], p.points[len(p.points)-1]
	rep.env["cpu_steal"] = fmt.Sprintf("%.1f%% (phase), %.1f%%..%.1f%% (windows)",
		100*ratio(float64(last.steal-first.steal), float64(last.demand-first.demand)),
		100*slices.Min(p.steal), 100*slices.Max(p.steal))
}

// window is the index of the window an offset falls in.
func (p *phase) window(at time.Duration) int {
	return min(sort.Search(len(p.windows), func(i int) bool { return at <= p.windows[i] }), len(p.windows)-1)
}

// quiet reports which untraced samples of s fall in the quiet windows.
func (p *phase) quiet(s *series) []bool {
	n := len(p.steal)
	count := make([]int, n)
	total := 0
	for i, e := range s.ends {
		if !s.traced[i] {
			count[p.window(e)]++
			total++
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.steal[order[a]] < p.steal[order[b]] })
	want := min(max(total/3, quietMin), total)
	chosen := make([]bool, n)
	got := 0
	for i, w := range order {
		if got >= want && i > 0 && p.steal[w] > max(p.steal[order[i-1]], quietFloor) {
			break
		}
		chosen[w] = true
		got += count[w]
	}
	keep := make([]bool, len(s.ends))
	for i, e := range s.ends {
		keep[i] = !s.traced[i] && chosen[p.window(e)]
	}
	return keep
}

// quantile is the q-quantile of s over the quiet windows.
func (p *phase) quantile(s *series, q float64) time.Duration {
	return s.pick(p.quiet(s)).quantile(q)
}

// pick returns the samples keep marks.
func (s *series) pick(keep []bool) samples {
	var sel samples
	for i, k := range keep {
		if k {
			sel = append(sel, s.lat[i])
		}
	}
	return sel
}

// untraced marks every untraced sample of s.
func (s *series) untraced() []bool {
	keep := make([]bool, len(s.traced))
	for i, t := range s.traced {
		keep[i] = !t
	}
	return keep
}

// rate is the number of s completed per second over the quiet windows:
// the inverse of the mean gap between consecutive completions, over the
// untraced completions that fall in them.
func (p *phase) rate(s *series) float64 {
	keep := p.quiet(s)
	var sum, prev time.Duration
	n := 0
	for i, e := range s.ends {
		if keep[i] {
			sum += e - prev
			n++
		}
		prev = e
	}
	return ratio(float64(n), sum.Seconds())
}

// recordLoad sets the end-to-end latency and throughput metrics of a
// finished phase. The header's quiet line says how many samples the
// quiet windows kept and gives the operation median over every untraced
// sample beside the reported one, so a drift between them shows.
func (p *phase) recordLoad(rep *report, ops, queries *series) {
	keep := p.quiet(ops)
	kept, windows := 0, map[int]bool{}
	for i, k := range keep {
		if k {
			kept++
			windows[p.window(ops.ends[i])] = true
		}
	}
	rep.env["quiet"] = fmt.Sprintf("%d of %d untraced ops in %d of %d windows; op p50 %.4g ms quiet, %.4g ms whole phase",
		kept, len(ops.pick(ops.untraced())), len(windows), len(p.steal),
		ms(ops.pick(keep).quantile(0.5)), ms(ops.pick(ops.untraced()).quantile(0.5)))
	rep.vals["op_p50_ms"] = ms(p.quantile(ops, 0.5))
	rep.vals["op_p90_ms"] = ms(p.quantile(ops, 0.9))
	rep.vals["ops_per_s"] = p.rate(ops)
	rep.vals["query_p50_us"] = us(p.quantile(queries, 0.5))
	rep.vals["query_p90_us"] = us(p.quantile(queries, 0.9))
	rep.vals["query_p99_us"] = us(p.quantile(queries, 0.99))
	rep.vals["queries_per_s"] = p.rate(queries)
}

// cpuTimes reads the machine's stolen CPU time and the CPU time demanded
// (user, nice, system, irq, softirq and steal: everything but idle and
// iowait) from /proc/stat (zeros where it is absent).
func cpuTimes() (steal, demand uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:min(len(fields), 9)] {
		v, _ := strconv.ParseUint(f, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = v
			demand += v
		default:
			demand += v
		}
	}
	return steal, demand
}

// median is the median duration (setup_s is the median of several
// set-ups, so one slow set-up does not move it).
func median(ds []time.Duration) time.Duration {
	return samples(ds).quantile(0.5)
}

// span is one timed interval of a traced operation. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 for the
// operation's root). Src is "bench" for intervals the benchmark timed
// around its own calls, "profile" or "metrics" for durations the program
// reported (placed at the parent's start: the program does not say
// where inside the parent they fell).
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Src    string `json:"src"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its ID. A nil tracer records nothing.
func (t *tracer) add(op int64, parent int, name string, start time.Time, d time.Duration, src string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Src: src,
		Start: start.Sub(t.origin).Nanoseconds()}
	s.End = s.Start + d.Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// layerSelf is one row of the self-time table.
type layerSelf struct {
	root, name string
	ops        int
	selfNS     int64
	rootNS     int64
}

// selfTimes aggregates, per root span name, each layer's self time:
// its spans' durations minus the part their child spans cover. The root
// span's own remainder is reported as "unattributed".
func (t *tracer) selfTimes() []layerSelf {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byID := map[int]span{}
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	type key struct{ root, name string }
	rows := map[key]*layerSelf{}
	ops := map[string]int{}
	rootNS := map[string]int64{}
	for _, s := range t.spans {
		r := rootOf(s)
		name := s.Name
		if s.Parent == 0 {
			name = "unattributed"
			ops[r.Name]++
			rootNS[r.Name] += s.End - s.Start
		}
		k := key{r.Name, name}
		row := rows[k]
		if row == nil {
			row = &layerSelf{root: r.Name, name: name}
			rows[k] = row
		}
		row.selfNS += s.End - s.Start - child[s.ID]
	}
	out := make([]layerSelf, 0, len(rows))
	for _, row := range rows {
		row.ops, row.rootNS = ops[row.root], rootNS[row.root]
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].root != out[j].root {
			return out[i].root < out[j].root
		}
		return out[i].selfNS > out[j].selfNS
	})
	return out
}

// printSelfTimes writes the self-time table as comment lines.
func (t *tracer) printSelfTimes(w io.Writer) {
	for _, r := range t.selfTimes() {
		fmt.Fprintf(w, "# self %-14s %-28s %10.3f ms/op %6.1f%%  (%d ops)\n",
			r.root, r.name, ratio(float64(r.selfNS)/1e6, float64(r.ops)),
			100*ratio(float64(r.selfNS), float64(r.rootNS)), r.ops)
	}
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
