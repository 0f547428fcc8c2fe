package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/regexformula"
	"repro/internal/span"
)

// serve drives the real spand binary, built from the tree under test
// and started with default flags, open loop: requests leave at seeded
// Poisson times whether or not earlier ones have returned, over at most
// serveConns connections. Plans are drawn by Zipf from servePlans
// (spanner, sentence splitter) pairs against spand's serveCache-plan
// cache, so misses pay compilation and the decision procedures. HTTP
// decode and encode, the plan cache and the core decision procedures do
// most of the work here and none in the library workloads.
type serve struct {
	seed    uint64
	z       *zipf
	docs    [][]string // per size class
	docJSON [][]string // the same documents as JSON strings
	fJSON   []string   // serve formulas as JSON strings
	fQuery  []string   // serve formulas query-escaped
	warm    []request
	win     []request
}

var (
	sentenceJSON  = mustJSON(sentenceFormula)
	sentenceQuery = url.QueryEscape(sentenceFormula)
)

func mustJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func newServe(seed uint64, seconds time.Duration) *serve {
	w := &serve{seed: seed, z: newZipf(servePlans, serveZipfS)}
	r := newRand(seed, streamServeDocs)
	for _, size := range serveDocSizes {
		var docs, js []string
		for i := 0; i < serveDocPool; i++ {
			d := serveDoc(r, w.z, size)
			docs = append(docs, d)
			js = append(js, mustJSON(d))
		}
		w.docs = append(w.docs, docs)
		w.docJSON = append(w.docJSON, js)
	}
	for k := 0; k < servePlans; k++ {
		w.fJSON = append(w.fJSON, mustJSON(serveFormula(k)))
		w.fQuery = append(w.fQuery, url.QueryEscape(serveFormula(k)))
	}
	n := func(d time.Duration) int { return int(math.Round(serveRate * d.Seconds())) }
	w.warm = schedule(newRand(seed, streamServeWarmup), w.z, n(serveWarmup), serveWarmup)
	// A window too short for minLatencySamples requests is lengthened at
	// the same rate.
	k := max(n(seconds), minLatencySamples)
	w.win = schedule(newRand(seed, streamServeSchedule), w.z, k, time.Duration(float64(k)/serveRate*float64(time.Second)))
	return w
}

func (w *serve) params() map[string]any {
	return map[string]any{"rate_per_s": serveRate, "slo_ms": serveSLO.Milliseconds(), "conns": serveConns,
		"plans": servePlans, "cache": serveCache, "zipf_s": serveZipfS, "doc_bytes": serveDocSizes,
		"batch_every": serveBatchOne, "batch_queries": serveBatchQ, "warmup_s": serveWarmup.Seconds(),
		"requests": len(w.win)}
}

func (w *serve) doc(q request) string { return w.docs[q.size][q.doc] }

// want is the expected tuple count of each query of q.
func (w *serve) want(q request) []int {
	out := make([]int, len(q.plans))
	for i, k := range q.plans {
		out[i] = countAfter(w.doc(q), serveMarker(k))
	}
	return out
}

const multipartBoundary = "perfbench-boundary-7a1f"

// body returns q's HTTP method path, content type and body.
func (w *serve) body(q request) (path, ctype string, body io.Reader) {
	switch q.kind {
	case kindJSON:
		return "/v1/extract", "application/json", strings.NewReader(
			`{"spanner":` + w.fJSON[q.plans[0]] + `,"splitter":` + sentenceJSON + `,"doc":` + w.docJSON[q.size][q.doc] + `}`)
	case kindRaw:
		return "/v1/extract?spanner=" + w.fQuery[q.plans[0]] + "&splitter=" + sentenceQuery,
			"text/plain", strings.NewReader(w.doc(q))
	case kindMultipart:
		field := func(name, val string) string {
			return "--" + multipartBoundary + "\r\nContent-Disposition: form-data; name=\"" + name + "\"\r\n\r\n" + val + "\r\n"
		}
		head := field("spanner", serveFormula(q.plans[0])) + field("splitter", sentenceFormula) +
			"--" + multipartBoundary + "\r\nContent-Disposition: form-data; name=\"doc\"; filename=\"doc.txt\"\r\n" +
			"Content-Type: text/plain\r\n\r\n"
		return "/v1/extract", "multipart/form-data; boundary=" + multipartBoundary,
			io.MultiReader(strings.NewReader(head), strings.NewReader(w.doc(q)),
				strings.NewReader("\r\n--"+multipartBoundary+"--\r\n"))
	}
	qs := make([]string, len(q.plans))
	for i, k := range q.plans {
		qs[i] = w.fJSON[k]
	}
	return "/v1/extract-batch", "application/json", strings.NewReader(
		`{"spanners":[` + strings.Join(qs, ",") + `],"doc":` + w.docJSON[q.size][q.doc] + `}`)
}

// extractReply and batchReply are the parts of spand's responses the
// benchmark checks.
type extractReply struct {
	Count int    `json:"count"`
	Error string `json:"error"` // a batch member's compile error
}

type batchReply struct {
	Queries []extractReply `json:"queries"`
}

func (w *serve) countsOf(q request, body []byte) ([]int, error) {
	if q.kind == kindBatch {
		var r batchReply
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out := make([]int, len(r.Queries))
		for i, qr := range r.Queries {
			if qr.Error != "" {
				return nil, errors.New(qr.Error)
			}
			out[i] = qr.Count
		}
		return out, nil
	}
	var r extractReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return []int{r.Count}, nil
}

// outcome is what the client saw of one request.
type outcome struct {
	due, sent, done time.Time
	err             error // nil for a 200 with the expected counts
}

func (o outcome) latencyMS() float64 { return float64(o.done.Sub(o.due).Nanoseconds()) / 1e6 }

// send posts q and checks the response. A non-nil tr records a
// spand.roundtrip span below parent around the post and the read.
func (w *serve) send(c *http.Client, base string, q request, want []int, tr *tracer, parent int32, req int64) outcome {
	var o outcome
	path, ctype, body := w.body(q)
	o.sent = time.Now()
	sp := tr.begin("spand.roundtrip", parent, req)
	resp, err := c.Post(base+path, ctype, body)
	if err != nil {
		tr.end(sp)
		o.done, o.err = time.Now(), err
		return o
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	o.done = time.Now()
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s request: status %d: %s", q.kind, resp.StatusCode, bytes.TrimSpace(b))
	default:
		got, err := w.countsOf(q, b)
		if err == nil && !equalInts(got, want) {
			err = &countMismatch{got, want}
		}
		if err != nil {
			o.err = fmt.Errorf("%s request: %w", q.kind, err)
		}
	}
	return o
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// play sends reqs open loop: each connection takes the next request in
// schedule order, waits for its due time if it is early, and sends it.
// A request due while both connections are busy waits, and that wait
// counts in its latency, which runs from the due time.
//
// With a tracer, every other block of serveBatchOne requests is traced
// live, so both halves hold the same mix of request kinds: a
// serve.request root from when a connection takes the request, with
// loadgen.wait around the wait for its due time and spand.roundtrip
// around the exchange.
func (w *serve) play(c *http.Client, base string, reqs []request, want [][]int, tr *tracer) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serveConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(reqs) {
					return
				}
				var t *tracer
				if isTraced(k) {
					t = tr
				}
				root := t.begin("serve.request", -1, int64(k))
				due := start.Add(reqs[k].at)
				sp := t.begin("loadgen.wait", root, int64(k))
				time.Sleep(time.Until(due))
				t.end(sp)
				outs[k] = w.send(c, base, reqs[k], want[k], t, root, int64(k))
				t.end(root)
				outs[k].due = due
			}
		}()
	}
	wg.Wait()
	return outs
}

func isTraced(k int) bool { return (k/serveBatchOne)%2 == 1 }

// daemon is one running spand process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *syncBuffer
	once sync.Once
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

// Write keeps the first MiB: spand logs a few lines per start and stop,
// and the log is only shown when spand fails to answer.
func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b.Len() > 1<<20 {
		return len(p), nil
	}
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startSpand execs spand with default flags on a free local port and
// returns once it has answered probe, with the time that took.
func startSpand(bin string, probe func(base string) error) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), log: &syncBuffer{}}
	d.cmd = exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start spand: %w", err)
	}
	for {
		err := probe(d.base)
		if err == nil {
			return d, time.Since(t0), nil
		}
		// Until spand listens, connections are refused (*net.OpError);
		// any other failure is final.
		var op *net.OpError
		if !errors.As(err, &op) || time.Since(t0) > 20*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("spand did not answer: %v; log: %s", err, d.log.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, which drains the daemon, and waits for it to
// exit; a daemon still running after the drain budget is killed. Later
// calls return at once.
func (d *daemon) stop() {
	d.once.Do(func() {
		// An error means the process has already exited; Wait reaps it.
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = d.cmd.Wait() // the exit status of a drained daemon carries nothing
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-done
		}
	})
}

func (d *daemon) scrape(c *http.Client) (series, error) {
	resp, err := c.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

const (
	serveSetupReps = 7
	serveMaxSteal  = 0.01
	serveMaxPlays  = 3
)

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// verify checks, before timing, that the in-process expected counts
// agree with sequential whole-document Eval on a seeded sample of
// (plan, document) pairs, and that Eval and Split agree with the
// reference evaluators on small windows of them.
func (w *serve) verify() error {
	r := newRand(w.seed, streamSample)
	sa, err := regexformula.Compile(sentenceFormula)
	if err != nil {
		return err
	}
	s, err := core.NewSplitter(sa)
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		k := w.z.sample(r)
		doc := w.docs[i%len(w.docs)][r.IntN(serveDocPool)]
		p, err := regexformula.Compile(serveFormula(k))
		if err != nil {
			return err
		}
		if got, want := p.Eval(doc).Len(), countAfter(doc, serveMarker(k)); got != want {
			return fmt.Errorf("plan %d: Eval found %d tuples, expected %d", k, got, want)
		}
		if i < referenceDocs {
			sample := sampleOf(r, doc, sampleBytes)
			if !p.EvalReference(sample).Equal(p.Eval(sample)) {
				return fmt.Errorf("plan %d: Eval differs from EvalReference", k)
			}
			if !equalSpans(s.Split(sample), s.SplitReference(sample)) {
				return fmt.Errorf("Split differs from SplitReference")
			}
		}
	}
	return nil
}

func runServe(o options) (runResult, error) {
	res := runResult{metrics: map[string]float64{}}
	w := newServe(o.seed, o.seconds)
	res.params = w.params()
	if err := w.verify(); err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	wants := func(reqs []request) [][]int {
		out := make([][]int, len(reqs))
		for i, q := range reqs {
			out[i] = w.want(q)
		}
		return out
	}
	warmWant, winWant := wants(w.warm), wants(w.win)

	c := newClient()
	defer c.CloseIdleConnections()
	probeQ := request{kind: kindJSON, plans: []int{0}, size: 0, doc: 0}
	probeWant := w.want(probeQ)
	probe := func(base string) error { return w.send(c, base, probeQ, probeWant, nil, -1, 0).err }
	// setup_s is the median of serveSetupReps execs of spand, half
	// before the timed window and half after it, so that it spans the
	// run. setUp keeps the last daemon it starts running.
	var setups []float64
	setUp := func(n int) (*daemon, error) {
		var d *daemon
		for i := 0; i < n; i++ {
			if d != nil {
				c.CloseIdleConnections()
				d.stop()
			}
			dd, took, err := startSpand(o.spand, probe)
			if err != nil {
				return nil, err
			}
			d = dd
			setups = append(setups, took.Seconds())
		}
		return d, nil
	}
	d, err := setUp(serveSetupReps/2 + 1)
	if err != nil {
		return res, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	for i, out := range w.play(c, d.base, w.warm, warmWant, nil) {
		if out.err != nil {
			return res, fmt.Errorf("warm-up request %d: %w", i, out.err)
		}
	}

	pid := d.cmd.Process.Pid
	// measure plays the window's schedule once. A host that steals CPU
	// stalls the generator and spand together, and every request due
	// during a stall waits it out, so the p99 of an open loop follows
	// the host rather than spand once the stolen time passes about 1%
	// of the window. A window during which the host stole more than
	// serveMaxSteal of the CPU time is therefore played again, up to
	// serveMaxPlays windows in all, and the one with the least stolen
	// time is kept; the report prints the share of each.
	type played struct {
		outs        []outcome
		start, last time.Time
		cpu         time.Duration
		m0, m1      series
		steal       float64
		tr          *tracer
	}
	measure := func() (played, error) {
		var p played
		var err error
		if p.m0, err = d.scrape(c); err != nil {
			return p, err
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			return p, err
		}
		if o.trace {
			p.tr = newTracer()
		}
		steal0, total0 := cpuTicks()
		p.start = time.Now()
		p.outs = w.play(c, d.base, w.win, winWant, p.tr)
		steal1, total1 := cpuTicks()
		p.steal = ratio(float64(steal1-steal0), float64(total1-total0))
		for _, out := range p.outs {
			if out.done.After(p.last) {
				p.last = out.done
			}
		}
		cpu1, err := procCPU(pid)
		if err != nil {
			return p, err
		}
		p.cpu = cpu1 - cpu0
		p.m1, err = d.scrape(c)
		return p, err
	}
	pw, err := measure()
	if err != nil {
		return res, err
	}
	stolen := []string{fmt.Sprintf("%.2f%%", 100*pw.steal)}
	for plays := 1; plays < serveMaxPlays && pw.steal > serveMaxSteal; plays++ {
		again, err := measure()
		if err != nil {
			return res, err
		}
		stolen = append(stolen, fmt.Sprintf("%.2f%%", 100*again.steal))
		if again.steal < pw.steal {
			pw, again = again, pw
		}
		// A window not kept still counts its operations, so that a
		// wrong response in it fails the run.
		for _, out := range again.outs {
			res.attempted++
			if out.err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = out.err
				}
			}
		}
	}
	if len(stolen) > 1 {
		fmt.Printf("  serve windows played: %d; the host stole %s of the CPU time in them\n", len(stolen), strings.Join(stolen, ", "))
	}
	outs, start, last, m0, m1, tr := pw.outs, pw.start, pw.last, pw.m0, pw.m1, pw.tr
	rss, err := peakRSSMB(fmt.Sprint(pid))
	if err != nil {
		return res, err
	}
	c.CloseIdleConnections()
	d.stop()
	if d, err = setUp(serveSetupReps - serveSetupReps/2 - 1); err != nil {
		return res, err
	}
	c.CloseIdleConnections()
	d.stop()
	res.metrics["setup_s"] = median(setups)

	var lat, traced, untraced, late, wire []float64
	var okBytes int64
	within := 0
	for i, out := range outs {
		q := w.win[i]
		res.attempted++
		if out.err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = out.err
			}
		} else {
			okBytes += int64(len(w.doc(q)))
		}
		l := out.latencyMS()
		lat = append(lat, l)
		if out.err == nil && l <= float64(serveSLO)/1e6 {
			within++
		}
		late = append(late, float64(out.sent.Sub(out.due).Nanoseconds())/1e6)
		wire = append(wire, float64(out.done.Sub(out.sent).Nanoseconds())/1e6)
		if tr != nil && isTraced(i) {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}
	mb := float64(okBytes) / 1e6
	res.samples = len(lat)
	res.withinSLO = within
	res.metrics["throughput_mb_s"] = mb / last.Sub(start).Seconds()
	res.metrics["latency_p50_ms"] = percentile(lat, 0.50)
	res.metrics["latency_p99_ms"] = percentile(lat, 0.99)
	res.metrics["slo_share"] = float64(within) / float64(len(outs))
	res.metrics["cpu_ms_per_mb"] = float64(pw.cpu.Nanoseconds()) / 1e6 / mb
	res.metrics["peak_rss_mb"] = rss
	res.latenessP99 = percentile(late, 0.99)

	if tr != nil {
		lm := res.metrics
		dm := func(name string) float64 { return delta(m0, m1, name) }
		var sum, cnt float64
		for _, ep := range []string{"/v1/extract", "/v1/extract-batch"} {
			sum += dm(`spand_http_request_seconds_sum{endpoint="` + ep + `"}`)
			cnt += dm(`spand_http_request_seconds_count{endpoint="` + ep + `"}`)
		}
		lm["spand.server_ms"] = ratio(sum*1e3, cnt)
		lm["spand.wire_ms"] = mean(wire) - lm["spand.server_ms"]
		hits, misses := dm("spanners_plan_cache_hits_total"), dm("spanners_plan_cache_misses_total")
		lm["engine.plan_hit_ratio"] = ratio(hits, hits+misses)
		lm["engine.plan_ms"] = ratio(dm(`spanners_engine_stage_seconds_sum{stage="plan"}`)*1e3,
			dm(`spanners_engine_stage_seconds_count{stage="plan"}`))
		lm["loadgen.late_p99_ms"] = res.latenessP99
		lm["trace.overhead_share"] = ratio(mean(traced)-mean(untraced), mean(untraced))
		n, err := w.replay(tr, warmWant, winWant, time.Now().Add(replayTime(o.seconds)))
		if err != nil {
			return res, fmt.Errorf("replay: %w", err)
		}
		res.attempted += n.attempted
		res.failed += n.failed
		spans := tr.snapshot()
		lt := byName(spans, selfTimes(spans))
		lm["spand.decode_ms"] = meanSelfMS(lt, "spand.decode")
		lm["spand.encode_ms"] = meanSelfMS(lt, "spand.encode")
		lm["engine.extract_ms"] = meanSelfMS(lt, "engine.extract")
		compileLayers(lm, lt)
		res.spans = tr
	}
	return res, nil
}

// extractRequest, extractResponse and the batch shapes mirror spand's
// wire types, and the replay decodes and encodes them with spand's
// settings (body limits, no HTML escaping). The decode and encode spans
// time this mirror, not spand's own code, so a change to spand's codec
// does not move them.
type extractRequest struct {
	Spanner  string   `json:"spanner"`
	Spanners []string `json:"spanners,omitempty"`
	Splitter string   `json:"splitter,omitempty"`
	Doc      string   `json:"doc,omitempty"`
}

type extractResponse struct {
	Strategy      string            `json:"strategy"`
	Verdicts      core.PlanVerdicts `json:"verdicts"`
	CacheHit      bool              `json:"cache_hit"`
	PlanCompileMS float64           `json:"plan_compile_ms"`
	Ingest        string            `json:"ingest"`
	Vars          []string          `json:"vars"`
	Count         int               `json:"count"`
	Tuples        [][][2]int        `json:"tuples"`
}

type batchQuery struct {
	Spanner string     `json:"spanner"`
	Vars    []string   `json:"vars,omitempty"`
	Count   int        `json:"count"`
	Tuples  [][][2]int `json:"tuples,omitempty"`
	Error   string     `json:"error,omitempty"`
}

type batchResponse struct {
	CacheHit      bool         `json:"cache_hit"`
	PlanCompileMS float64      `json:"plan_compile_ms"`
	Queries       []batchQuery `json:"queries"`
}

func tuplesOf(rel *span.Relation) [][][2]int {
	out := make([][][2]int, 0, rel.Len())
	for _, t := range rel.Tuples {
		row := make([][2]int, len(t))
		for i, s := range t {
			row[i] = [2]int{s.Start, s.End}
		}
		out = append(out, row)
	}
	return out
}

// spand's limits on a JSON request body and on a multipart formula
// field.
const (
	spandMaxJSONBody = 64 << 20
	spandMaxFormula  = 1 << 20
)

type tally struct{ attempted, failed int }

// replay serves the same requests in process, on an engine configured
// like spand's, with a span around each step spand takes: decode the
// request, plan (and on a miss, compile and decide again under spans of
// their own), extract, encode the response. The warm-up requests run
// first, untraced, so the plan cache holds what spand's held.
func (w *serve) replay(tr *tracer, warmWant, winWant [][]int, until time.Time) (tally, error) {
	e := engine.New(engine.Config{PlanCache: serveCache, ReadTimeout: 30 * time.Second})
	var t tally
	for i, q := range w.warm {
		if err := w.replayOne(e, nil, q, warmWant[i], int64(i)); err != nil {
			return t, err
		}
	}
	for i := 0; i < len(w.win) && (i < 64 || time.Now().Before(until)); i++ {
		t.attempted++
		err := w.replayOne(e, tr, w.win[i], winWant[i], int64(i))
		var mismatch *countMismatch
		switch {
		case errors.As(err, &mismatch):
			t.failed++
		case err != nil:
			return t, err
		}
	}
	return t, nil
}

type countMismatch struct{ got, want []int }

func (m *countMismatch) Error() string { return fmt.Sprintf("counts %v, want %v", m.got, m.want) }

func (w *serve) replayOne(e *engine.Engine, tr *tracer, q request, want []int, req int64) error {
	path, _, body := w.body(q)
	root := tr.begin("serve.replay", -1, req)
	defer tr.end(root)

	sp := tr.begin("spand.decode", root, req)
	var in extractRequest
	var doc io.Reader
	switch q.kind {
	case kindJSON, kindBatch:
		if err := json.NewDecoder(io.LimitReader(body, spandMaxJSONBody)).Decode(&in); err != nil {
			return err
		}
	case kindRaw:
		u, err := url.Parse(path)
		if err != nil {
			return err
		}
		v := u.Query()
		in.Spanner, in.Splitter = v.Get("spanner"), v.Get("splitter")
		doc = body
	case kindMultipart:
		mr := multipart.NewReader(body, multipartBoundary)
		for doc == nil {
			part, err := mr.NextPart()
			if err != nil {
				return err
			}
			if part.FormName() == "doc" {
				doc = part
				continue
			}
			val, err := io.ReadAll(io.LimitReader(part, spandMaxFormula+1))
			if err != nil {
				return err
			}
			switch part.FormName() {
			case "spanner":
				in.Spanner = string(val)
			case "splitter":
				in.Splitter = string(val)
			}
		}
	}
	tr.end(sp)

	var rels []*span.Relation
	var out any
	if q.kind == kindBatch {
		sp = tr.begin("engine.plan", root, req)
		plan, hit, err := e.PlanBatch(bg, engine.BatchRequest{Spanners: in.Spanners})
		tr.end(sp)
		if err != nil {
			return err
		}
		if !hit && tr != nil {
			for _, s := range in.Spanners {
				if err := compileReplay(tr, root, req, planPair{spanner: s}); err != nil {
					return err
				}
			}
		}
		sp = tr.begin("engine.extract", root, req)
		res, err := e.ExtractBatch(bg, plan, in.Doc)
		tr.end(sp)
		if err != nil {
			return err
		}
		resp := batchResponse{CacheHit: hit, PlanCompileMS: float64(plan.CompileTime.Microseconds()) / 1000}
		for i, r := range res {
			if r.Err != nil {
				return r.Err
			}
			rels = append(rels, r.Rel)
			resp.Queries = append(resp.Queries, batchQuery{Spanner: in.Spanners[i], Vars: r.Rel.Vars,
				Count: r.Rel.Len(), Tuples: tuplesOf(r.Rel)})
		}
		out = resp
	} else {
		ereq := engine.Request{Spanner: in.Spanner, Splitter: in.Splitter}
		sp = tr.begin("engine.plan", root, req)
		plan, hit, err := e.Plan(bg, ereq)
		tr.end(sp)
		if err != nil {
			return err
		}
		if !hit && tr != nil {
			if err := compileReplay(tr, root, req, planPair{in.Spanner, in.Splitter}); err != nil {
				return err
			}
		}
		sp = tr.begin("engine.extract", root, req)
		var rel *span.Relation
		ingest := "inline"
		if doc == nil {
			rel, err = e.Extract(bg, plan, in.Doc)
		} else {
			ingest = "streamed"
			rel, err = e.ExtractReader(bg, plan, doc)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		rels = []*span.Relation{rel}
		out = extractResponse{Strategy: plan.Strategy.String(), Verdicts: plan.Verdicts, CacheHit: hit,
			PlanCompileMS: float64(plan.CompileTime.Microseconds()) / 1000, Ingest: ingest,
			Vars: plan.Vars(), Count: rel.Len(), Tuples: tuplesOf(rel)}
	}

	sp = tr.begin("spand.encode", root, req)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(out)
	tr.end(sp)
	if err != nil {
		return err
	}
	if got := counts(rels); !equalInts(got, want) {
		return &countMismatch{got, want}
	}
	return nil
}
