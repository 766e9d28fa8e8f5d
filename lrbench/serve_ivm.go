package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"logres"
	"logres/client"
	"logres/internal/server"
)

const (
	// ivmSetups is how many times serve_ivm builds its server; setup_s
	// is the median.
	ivmSetups = 5
	ivmDBName = "chains"
	// ivmAllocBlocks is the number of writer blocks alloc_kb_per_op is
	// measured over, with the reader stopped.
	ivmAllocBlocks = 2
)

// ivmServer is one served database: the server on a loopback listener
// over a durable data directory, plus a client bound to it.
type ivmServer struct {
	srv  *server.Server
	hs   *http.Server
	tr   *http.Transport
	done chan error
	db   *logres.Database
	cl   *client.Client
	dir  string
}

// startIVM builds the server, creates the incremental database and
// preloads the chains and the persistent closure rules over HTTP.
func startIVM(dir string) (x *ivmServer, err error) {
	srv := server.New(server.Options{DataDir: filepath.Join(dir, "data")})
	if _, err := srv.OpenDataDir(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	x = &ivmServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, tr: &http.Transport{}, done: make(chan error, 1), dir: dir}
	go func() { x.done <- x.hs.Serve(ln) }()
	defer func() {
		if err != nil {
			x.stop()
		}
	}()
	x.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: x.tr}), client.WithConflictRetries(4))
	// The options PUT /v1/db/{name} builds for {"incremental": true};
	// creating through the server API keeps the *Database in hand for the
	// in-process subscription and the Save oracle.
	x.db, err = srv.Create(ivmDBName, ivmSchema, logres.WithMetrics(srv.Metrics()), logres.WithIncremental(true))
	if err != nil {
		return x, err
	}
	ctx := context.Background()
	for _, src := range []string{ivmBase(), ivmRules} {
		if _, err := x.cl.Exec(ctx, ivmDBName, src); err != nil {
			return x, fmt.Errorf("preload: %w", err)
		}
	}
	return x, nil
}

// stop drains the server, stops the listener, closes the store and
// removes the data directory.
func (x *ivmServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := x.srv.Shutdown(ctx)
	if herr := x.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-x.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	x.tr.CloseIdleConnections()
	if x.db != nil {
		if cerr := x.db.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(x.dir); err == nil {
		err = rerr
	}
	return err
}

// inproc sends one request straight into the server's handler and
// returns the handler time and the response body.
func (x *ivmServer) inproc(path string, req any) (time.Duration, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/db/"+ivmDBName+path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	start := time.Now()
	x.srv.Handler().ServeHTTP(w, r)
	d := time.Since(start)
	if w.Code != http.StatusOK {
		return d, nil, fmt.Errorf("%s: HTTP %d: %s", path, w.Code, strings.TrimSpace(w.Body.String()))
	}
	return d, w.Body.Bytes(), nil
}

// inprocQuery runs a query through the handler and collects its rows.
func (x *ivmServer) inprocQuery(goal string) (time.Duration, [][]string, error) {
	d, body, err := x.inproc("/query", client.QueryRequest{Goal: goal})
	if err != nil {
		return d, nil, err
	}
	var rows [][]string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var line struct {
			Rows  [][]string `json:"rows"`
			Error string     `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return d, nil, err
		}
		if line.Error != "" {
			return d, nil, errors.New(line.Error)
		}
		rows = append(rows, line.Rows...)
	}
	return d, rows, sc.Err()
}

// ivmMetrics reads the served database's IVM and subscription counters.
type ivmMetrics struct {
	propNS, props, deltaFacts, rebuilds, emits, drops int64
}

func (a ivmMetrics) minus(b ivmMetrics) ivmMetrics {
	return ivmMetrics{a.propNS - b.propNS, a.props - b.props, a.deltaFacts - b.deltaFacts,
		a.rebuilds - b.rebuilds, a.emits - b.emits, a.drops - b.drops}
}

func readIVMMetrics(m *logres.Metrics) ivmMetrics {
	h := m.Histogram("logres_ivm_propagate_duration_ns")
	return ivmMetrics{
		propNS: h.Sum(), props: h.Count(),
		deltaFacts: m.Counter("logres_ivm_delta_facts_total").Value(),
		rebuilds:   m.Counter("logres_ivm_rebuilds_total").Value(),
		emits:      m.Counter("logres_sub_emits_total").Value(),
		drops:      m.Counter("logres_sub_slow_drops_total").Value(),
	}
}

// subscriber folds the subscription's diffs and timestamps each epoch's
// arrival. Its fields belong to its goroutine until done is closed.
type subscriber struct {
	sub    *logres.Subscription
	recv   map[uint64]time.Time
	folded map[string]bool
	last   uint64
	gaps   []string
	done   chan struct{}
}

func newSubscriber(sub *logres.Subscription, initial map[string]bool) *subscriber {
	s := &subscriber{sub: sub, recv: map[uint64]time.Time{}, folded: initial, last: sub.Epoch, done: make(chan struct{})}
	go s.run()
	return s
}

func (s *subscriber) run() {
	defer close(s.done)
	for d := range s.sub.C {
		s.recv[d.Epoch] = time.Now()
		if d.Epoch != s.last+1 {
			s.gaps = append(s.gaps, fmt.Sprintf("diff for epoch %d after epoch %d", d.Epoch, s.last))
		}
		s.last = d.Epoch
		for _, f := range d.Removes {
			delete(s.folded, f.Key())
		}
		for _, f := range d.Adds {
			s.folded[f.Key()] = true
		}
	}
}

// runServeIVM is the serve_ivm workload: one writer and one reader
// connection against the served incremental database, with an
// in-process subscriber on the closure.
func runServeIVM(cfg config, rep *report) error {
	setDBEnv(rep, true)
	rep.env["fsync"] = "always (server default)"
	rep.env["store"] = fmt.Sprintf("served durable incremental db, %d chains x %d links, reach closure", ivmChains, ivmChainLen)

	var (
		x      *ivmServer
		setups []time.Duration
	)
	stopServer := func() error {
		if x == nil {
			return nil
		}
		err := x.stop()
		x = nil
		return err
	}
	defer stopServer()
	for i := 0; i < ivmSetups; i++ {
		if err := stopServer(); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(cfg.dir, "serve_ivm-")
		if err != nil {
			return err
		}
		start := time.Now()
		if x, err = startIVM(dir); err != nil {
			x = nil
			os.RemoveAll(dir)
			return err
		}
		setups = append(setups, time.Since(start))
	}
	rep.vals["setup_s"] = median(setups).Seconds()
	ctx := context.Background()

	// Untimed warm-up with both connections, so the heap and the caches
	// have settled when timing starts.
	w := newIVMWriter(cfg.seed)
	warmCfg := config{seed: cfg.seed, dur: warmupDur}
	var warmW, warmR ivmLoad
	runIVMLoad(ctx, warmCfg, x, w, nil, time.Now(), &warmW, &warmR)
	if fails := append(warmW.mismatches, warmR.mismatches...); len(fails) > 0 {
		return fmt.Errorf("warm-up: %s", fails[0])
	}

	sub, err := x.db.SubscribeView(logres.SubscribeOptions{Preds: []string{"reach"}})
	if err != nil {
		return err
	}
	initial, err := reachKeys(x.db)
	if err != nil {
		return err
	}
	subs := newSubscriber(sub, initial)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	m := x.srv.Metrics()
	m0 := readIVMMetrics(m)
	ph := startPhase()
	var wr, rd ivmLoad
	runIVMLoad(ctx, cfg, x, w, tr, ph.begin, &wr, &rd)
	m1 := readIVMMetrics(m)
	commits := len(wr.ops.lat)
	ph.end(rep, wr.blocks)

	// Allocation per commit, over whole writer blocks with the reader
	// stopped, so that it does not depend on how many queries the reader
	// completes per commit. It still counts the server's and the client's
	// HTTP work and the subscriber's fan-out of each commit.
	var solo ivmLoad
	mem0 := readMem()
	for i := 0; i < ivmAllocBlocks*ivmBlock; i++ {
		solo.commit(ctx, x, w)
	}
	recordAlloc(rep, mem0, readMem(), ivmAllocBlocks*ivmBlock)

	// Every commit's diff is in the subscription's buffer by the time
	// the commit is acknowledged, so closing now loses none of them.
	sub.Close()
	<-subs.done
	for _, l := range []*ivmLoad{&wr, &rd, &solo} {
		rep.attempted += l.attempted
		rep.failed += l.failed
		rep.mismatches = append(rep.mismatches, l.mismatches...)
	}
	var notify series
	for i, c := range append(wr.sent, solo.sent...) {
		got, ok := subs.recv[c.epoch]
		rep.attempted++
		if !ok {
			rep.failed++
			rep.mismatch("no diff received for epoch %d", c.epoch)
			continue
		}
		if i < len(wr.sent) {
			notify.addTraced(got.Sub(c.at), got.Sub(ph.begin), c.traced)
		}
	}
	if err := sub.Err(); err != nil {
		rep.failed++
		rep.mismatch("subscription ended: %v", err)
	}
	rep.mismatches = append(rep.mismatches, subs.gaps...)

	ph.recordLoad(rep, &wr.ops, &rd.ops)
	rep.vals["notify_p50_ms"] = ms(ph.quantile(&notify, 0.5))
	rep.vals["notify_p90_ms"] = ms(ph.quantile(&notify, 0.9))
	rep.env["samples"] = fmt.Sprintf("%d commits, %d queries, %d diffs", commits, len(rd.ops.lat), len(notify.lat))

	if err := checkIVM(ctx, rep, x, w, subs.folded); err != nil {
		return err
	}
	rep.vals["failed_ops_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	if cfg.trace {
		t := time.Now()
		if err := x.db.CheckConsistency(); err != nil {
			rep.mismatch("consistency: %v", err)
		}
		rep.vals["instance.check_ms"] = ms(time.Since(t))
		recordIVMLayers(rep, &wr, &rd, m1.minus(m0), commits)
		if err := finishTrace(cfg, rep, tr); err != nil {
			return err
		}
	}
	return stopServer()
}

// recordIVMLayers sets the per-layer metrics only serve_ivm exercises;
// d is the metrics' change over the timed phase.
func recordIVMLayers(rep *report, wr, rd *ivmLoad, d ivmMetrics, commits int) {
	wr.acc.report(rep)
	n := float64(commits)
	rep.vals["engine.ivm_propagate_ms"] = ratio(float64(d.propNS)/1e6, float64(d.props))
	rep.vals["engine.ivm_delta_facts_per_commit"] = ratio(float64(d.deltaFacts), n)
	rep.vals["engine.ivm_rebuilds"] = float64(d.rebuilds)
	rep.vals["logres.sub_emits_per_commit"] = ratio(float64(d.emits), n)
	rep.vals["logres.sub_slow_drops"] = float64(d.drops)
	rep.vals["server.exec_handler_us"] = us(wr.handler.mean())
	rep.vals["server.query_handler_us"] = us(rd.handler.mean())
	rep.vals["client.overhead_us"] = us((wr.overhead.mean() + rd.overhead.mean()) / 2)
	rep.vals["obs.trace_overhead_frac"] = ratio(float64(wr.traced.quantile(0.5)), float64(wr.untraced.quantile(0.5))) - 1
}

// ivmLoad is one closed-loop connection's record.
type ivmLoad struct {
	attempted, failed int
	mismatches        []string
	ops               series
	// sent holds each acknowledged commit's epoch and send time, in
	// commit order; blocks the end offsets of the writer's blocks.
	sent   []sentCommit
	blocks []time.Duration
	// Traced runs only: handler times of in-process requests, client
	// time beyond the server's own wall clock, traced and untraced
	// latencies, and the layer accumulator.
	handler, overhead, traced, untraced samples
	acc                                 layerAcc
}

type sentCommit struct {
	epoch  uint64
	at     time.Time
	traced bool
}

// runIVMLoad runs the writer connection for cfg.dur and on to the end
// of its block, and the reader connection until the writer stops.
// Completion offsets count from begin.
func runIVMLoad(ctx context.Context, cfg config, x *ivmServer, w *ivmWriter, tr *tracer, begin time.Time, wr, rd *ivmLoad) {
	var wg sync.WaitGroup
	wg.Add(2)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(stop)
		wr.write(ctx, cfg, x, w, tr, begin)
	}()
	go func() {
		defer wg.Done()
		rd.read(ctx, cfg, x, tr, begin, stop)
	}()
	wg.Wait()
}

func (l *ivmLoad) fail(format string, args ...any) {
	l.failed++
	l.mismatches = append(l.mismatches, fmt.Sprintf(format, args...))
}

// ivmTraceMode decides how a traced run sends request i of a connection.
// Requests go in blocks of ivmBlock (the timed phase starts on a writer
// block's boundary, so each writer block holds one removal), cycling
// through three modes: untraced over the wire, traced over the wire
// (profiled, with spans), and in-process through
// Server.Handler().ServeHTTP, which times the handler without the wire.
// Only the first mode's samples count in the latency and rate figures.
func ivmTraceMode(cfg config, i int64) (traced, inproc bool) {
	if !cfg.trace {
		return false, false
	}
	mode := (i / ivmBlock) % 3
	return mode == 1, mode == 2
}

// commit sends the writer's next commit over the wire, untraced.
func (l *ivmLoad) commit(ctx context.Context, x *ivmServer, w *ivmWriter) {
	op, src := w.next()
	start := time.Now()
	resp, err := x.cl.Exec(ctx, ivmDBName, src)
	l.attempted++
	if err != nil {
		l.fail("commit: %v", err)
		return
	}
	w.apply(op)
	l.sent = append(l.sent, sentCommit{epoch: resp.Epoch, at: start})
}

// write is the writer connection: the writer's commits until the
// deadline, and on to the end of the open block.
func (l *ivmLoad) write(ctx context.Context, cfg config, x *ivmServer, w *ivmWriter, tr *tracer, begin time.Time) {
	m := x.srv.Metrics()
	for i := int64(0); time.Since(begin) < cfg.dur || w.blockOpen(); i++ {
		if i > 0 && !w.blockOpen() {
			l.blocks = append(l.blocks, time.Since(begin))
		}
		op, src := w.next()
		traceOp, inproc := ivmTraceMode(cfg, i)
		// The server parses its own copy; the benchmark parses the
		// source once more, outside the timed request, to time the parser.
		var parse time.Duration
		var prop0 int64
		if traceOp {
			t := time.Now()
			if _, err := logres.ParseModule(src); err != nil {
				l.fail("parse commit %d: %v", i, err)
			}
			parse = time.Since(t)
			prop0 = m.Histogram("logres_ivm_propagate_duration_ns").Sum()
		}
		start := time.Now()
		var (
			resp *client.ExecResponse
			err  error
			hd   time.Duration
		)
		if inproc {
			var body []byte
			hd, body, err = x.inproc("/exec", client.ExecRequest{Module: src})
			if err == nil {
				resp = &client.ExecResponse{}
				err = json.Unmarshal(body, resp)
			}
		} else {
			resp, err = x.cl.ExecRequest(ctx, ivmDBName, client.ExecRequest{Module: src, Profile: traceOp})
		}
		d := time.Since(start)
		l.attempted++
		if err != nil {
			l.fail("commit %d: %v", i, err)
			continue
		}
		w.apply(op)
		l.ops.addTraced(d, time.Since(begin), traceOp || inproc)
		l.sent = append(l.sent, sentCommit{resp.Epoch, start, traceOp || inproc})
		switch {
		case inproc:
			l.handler = append(l.handler, hd)
		case traceOp:
			l.traced = append(l.traced, d)
			if resp.Profile == nil {
				l.fail("commit %d: no profile in the response", i)
				continue
			}
			s, err := summarizeWire(resp.Profile)
			if err != nil {
				l.fail("commit %d: %v", i, err)
				continue
			}
			wall := time.Duration(resp.Profile.WallNS)
			l.acc.add(parse, wall, s)
			l.overhead = append(l.overhead, d-wall)
			prop := time.Duration(m.Histogram("logres_ivm_propagate_duration_ns").Sum() - prop0)
			root := tr.add(i, 0, "op.exec", start, d, "bench")
			h := tr.add(i, root, "server.handler", start, wall, "profile")
			tr.add(i, h, "engine.eval", start, s.eval, "profile")
			tr.add(i, h, "storage.fsync_wait", start, s.syncWait, "profile")
			tr.add(i, h, "engine.ivm_propagate", start, prop, "metrics")
		case cfg.trace:
			l.untraced = append(l.untraced, d)
		}
	}
	l.blocks = append(l.blocks, time.Since(begin))
}

// read is the reader connection: point queries until stop is closed,
// each checked for a contiguous run of the queried node's chain.
func (l *ivmLoad) read(ctx context.Context, cfg config, x *ivmServer, tr *tracer, begin time.Time, stop <-chan struct{}) {
	next := ivmReader(cfg.seed)
	for i := int64(0); ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		c, k := next()
		goal := fmt.Sprintf(`?- reach(src: "%s", dst: Y).`, ivmNode(c, k))
		traceOp, inproc := ivmTraceMode(cfg, i)
		start := time.Now()
		var (
			rows [][]string
			prof *client.Profile
			err  error
			hd   time.Duration
		)
		switch {
		case inproc:
			hd, rows, err = x.inprocQuery(goal)
		case traceOp:
			var ans *client.Answer
			if ans, prof, err = x.cl.QueryProfile(ctx, ivmDBName, goal); err == nil {
				rows = ans.Rows
			}
		default:
			var ans *client.Answer
			if ans, err = x.cl.Query(ctx, ivmDBName, goal); err == nil {
				rows = ans.Rows
			}
		}
		d := time.Since(start)
		l.attempted++
		if err != nil {
			l.fail("query %d: %v", i, err)
			continue
		}
		l.ops.addTraced(d, time.Since(begin), traceOp || inproc)
		if err := checkChainRun(rows, c, k); err != nil {
			l.fail("query %s: %v", ivmNode(c, k), err)
		}
		switch {
		case inproc:
			l.handler = append(l.handler, hd)
		case traceOp && prof != nil:
			wall := time.Duration(prof.WallNS)
			l.overhead = append(l.overhead, d-wall)
			root := tr.add(-1-i, 0, "op.query", start, d, "bench")
			tr.add(-1-i, root, "server.handler", start, wall, "profile")
		}
	}
}

// checkChainRun checks a reach(src: cC_K, dst: Y) answer: the
// destinations must be cC_{K+1} … cC_{K+n}, a contiguous run of the
// chain, whatever its length at the time of the read.
func checkChainRun(rows [][]string, chain, k int) error {
	got := make([]string, len(rows))
	for i, r := range rows {
		if len(r) != 1 {
			return fmt.Errorf("row %v has %d columns", r, len(r))
		}
		got[i] = r[0]
	}
	want := make([]string, len(rows))
	for i := range want {
		want[i] = fmt.Sprintf("%q", ivmNode(chain, k+1+i))
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("destinations %v are not the run %v", got, want)
	}
	return nil
}

// reachKeys is the fact-key set of the database's REACH facts.
func reachKeys(db *logres.Database) (map[string]bool, error) {
	facts, err := db.Instance()
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, f := range facts {
		if f.Pred == "reach" {
			out[f.Key()] = true
		}
	}
	return out, nil
}

// checkIVM is serve_ivm's oracle: a fresh non-incremental database
// loaded from the served database's Save bytes must agree with the
// final HTTP answer, with the folded subscription diffs, and with the
// chains every acknowledged commit built.
func checkIVM(ctx context.Context, rep *report, x *ivmServer, w *ivmWriter, folded map[string]bool) error {
	var snap bytes.Buffer
	start := time.Now()
	if err := x.db.Save(&snap); err != nil {
		return err
	}
	rep.vals["storage.snapshot_ms"] = ms(time.Since(start))
	rep.vals["storage.snapshot_bytes"] = float64(snap.Len())
	fresh, err := logres.Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return err
	}
	const all = `?- reach(src: X, dst: Y).`
	freshAns, err := fresh.Query(all)
	if err != nil {
		return err
	}
	want := answerRows(freshAns)
	httpAns, err := x.cl.Query(ctx, ivmDBName, all)
	if err != nil {
		return err
	}
	if got := joinRows(httpAns.Rows); !slices.Equal(got, want) {
		rep.mismatch("final HTTP reach answer: %d rows, fresh evaluation has %d", len(got), len(want))
	}
	if got := chainClosure(w.lens); !slices.Equal(got, want) {
		rep.mismatch("fresh reach answer has %d rows, the acknowledged commits build %d", len(want), len(got))
	}
	freshKeys, err := reachKeys(fresh)
	if err != nil {
		return err
	}
	if !maps.Equal(folded, freshKeys) {
		rep.mismatch("folded subscription diffs: %d reach facts, fresh evaluation has %d", len(folded), len(freshKeys))
	}
	return nil
}

// chainClosure is the expected reach answer for the given chain lengths.
func chainClosure(lens []int) []string {
	var out []string
	for c, n := range lens {
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				out = append(out, fmt.Sprintf("%q|%q", ivmNode(c, i), ivmNode(c, j)))
			}
		}
	}
	sort.Strings(out)
	return out
}

// joinRows renders wire rows like answerRows.
func joinRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}
