package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// libWorkload is a closed-loop batch job on an in-process engine: one
// client submits the next document when the previous one returns.
type libWorkload interface {
	params() map[string]any
	slo() time.Duration
	// pool returns the documents the client cycles through, in order.
	pool() []string
	// plans returns the workload's (spanner, splitter) formula pairs.
	plans() []planPair
	// open compiles the workload's plans on a fresh engine.
	open(e *engine.Engine) error
	// run performs one operation through the engine's public entry
	// point and returns one relation per query. With a tracer it
	// records a span around each call into the engine under parent.
	run(e *engine.Engine, doc string, tr *tracer, parent int32, req int64) ([]*span.Relation, error)
	// oracle evaluates doc sequentially and whole with automata the
	// benchmark compiled itself, one relation per query.
	oracle(doc string) []*span.Relation
	// reference checks the oracle against the reference evaluators
	// (EvalReference, SplitReference) on a small document.
	reference(doc string) error
	// replay decomposes operations into calls on the layers below the
	// engine, each under a span, until the deadline, and adds the
	// layer metrics it measures to out. msPerMB is the untraced
	// operations' time per MB. It returns the operations whose result
	// did not match.
	replay(e *engine.Engine, want map[string][]int, tr *tracer, until time.Time, msPerMB float64, out map[string]float64) (failed int, err error)
}

type planPair struct{ spanner, splitter string }

const (
	// setup_s is the median of libSetupSamples samples, each the mean
	// of libSetupBatch set-ups run back to back.
	libSetupSamples = 21
	libSetupBatch   = 10
	sampleBytes     = 3 << 10 // reference-checked sample size
	referenceDocs   = 2
	maxWindowScale  = 3 // a run stops at this multiple of --seconds even short of minLatencySamples
)

// counts returns the tuple count of each relation.
func counts(rels []*span.Relation) []int {
	out := make([]int, len(rels))
	for i, r := range rels {
		out[i] = r.Len()
	}
	return out
}

func sameCounts(rels []*span.Relation, want []int) bool {
	if len(rels) != len(want) {
		return false
	}
	for i, r := range rels {
		if r == nil || r.Len() != want[i] {
			return false
		}
	}
	return true
}

// checkCounts turns an operation's outcome into an error: its own, or
// a mismatch with the expected tuple counts.
func checkCounts(rels []*span.Relation, err error, want []int) error {
	if err == nil && !sameCounts(rels, want) {
		var got []int
		for _, r := range rels {
			if r != nil {
				got = append(got, r.Len())
			}
		}
		err = &countMismatch{got, want}
	}
	return err
}

// checkAgainstOracle runs doc through the engine and compares every
// relation, tuple by tuple, with the sequential whole-document oracle.
func checkAgainstOracle(w libWorkload, e *engine.Engine, doc string) ([]int, error) {
	got, err := w.run(e, doc, nil, -1, 0)
	if err != nil {
		return nil, err
	}
	want := w.oracle(doc)
	if len(got) != len(want) {
		return nil, fmt.Errorf("engine returned %d relations, oracle %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			return nil, fmt.Errorf("query %d: engine result (%d tuples) differs from sequential Eval (%d tuples)", i, got[i].Len(), want[i].Len())
		}
	}
	return counts(want), nil
}

// sampleOf returns a seeded window of at most n bytes of doc.
func sampleOf(r *rand.Rand, doc string, n int) string {
	if len(doc) <= n {
		return doc
	}
	lo := r.IntN(len(doc) - n)
	return doc[lo : lo+n]
}

// compileReplay compiles one plan's formulas and runs the decision
// procedures the engine runs on a plan-cache miss, each under a span:
// regexformula.compile around Compile, core.verdicts around IsDisjoint,
// IsLocal and the self-splittability procedure.
func compileReplay(tr *tracer, parent int32, req int64, p planPair) error {
	c := tr.begin("regexformula.compile", parent, req)
	pa, err := regexformula.Compile(p.spanner)
	var sa *vsa.Automaton
	if err == nil && p.splitter != "" {
		sa, err = regexformula.Compile(p.splitter)
	}
	tr.end(c)
	if err != nil || sa == nil {
		return err
	}
	v := tr.begin("core.verdicts", parent, req)
	defer tr.end(v)
	s, err := core.NewSplitter(sa)
	if err != nil {
		return err
	}
	if !s.IsDisjoint() {
		return fmt.Errorf("splitter of %q is not disjoint", p.spanner)
	}
	if _, err := s.IsLocal(0); err != nil {
		return err
	}
	// The engine's procedure choice: the polynomial route for
	// deterministic automata and a disjoint splitter.
	if pa.Arity() > 0 && pa.IsDeterministic() && sa.IsDeterministic() {
		_, err = core.SelfSplittablePoly(pa, s)
	} else {
		_, err = core.SelfSplittable(pa, s, 0)
	}
	return err
}

// window is what a closed loop measured.
type window struct {
	ops, failed int
	bytes       int64
	wall        time.Duration
	lat         []float64 // ms, untraced operations
	tracedLat   []float64 // ms, traced operations
	tracedBytes int64
	cpu         time.Duration
	rt0, rt1    goRuntime
	reg0, reg1  series
	st0, st1    engine.Stats
}

func scrapeEngine(e *engine.Engine) series {
	var b bytes.Buffer
	if err := e.Registry().WritePrometheus(&b); err != nil {
		return series{}
	}
	s, _ := parseProm(&b)
	return s
}

// runLibrary runs a library workload and returns its result.
func runLibrary(w libWorkload, o options) (runResult, error) {
	res := runResult{metrics: map[string]float64{}}
	docs := w.pool()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Checks before timing, on an engine of their own: every pool
	// document against the sequential oracle, and a seeded sample
	// against the reference evaluators.
	want := make(map[string][]int, len(docs))
	{
		e := engine.New(engine.Config{})
		if err := w.open(e); err != nil {
			return res, fmt.Errorf("open: %w", err)
		}
		for i, d := range docs {
			c, err := checkAgainstOracle(w, e, d)
			if err != nil {
				return res, fmt.Errorf("document %d: %w", i, err)
			}
			want[d] = c
		}
		sr := newRand(o.seed, streamSample)
		for i := 0; i < referenceDocs; i++ {
			s := sampleOf(sr, docs[sr.IntN(len(docs))], sampleBytes)
			if _, err := checkAgainstOracle(w, e, s); err != nil {
				return res, fmt.Errorf("reference sample %d: %w", i, err)
			}
			if err := w.reference(s); err != nil {
				return res, fmt.Errorf("reference sample %d: %w", i, err)
			}
		}
	}
	probe := docs[0][:1<<10]
	probeWant := counts(w.oracle(probe))

	// Set-up: a fresh engine until its plans are compiled and it has
	// answered its first request. One set-up of a library workload takes
	// about a millisecond, as short as the machine's wake-up and
	// scheduling hiccups, so a sample times a batch of them, and setup_s
	// is the median sample. Half the samples are taken before the timed
	// window and half after it, so that the median spans the run rather
	// than one moment of a machine whose speed drifts. Each batch starts
	// from a collected heap, as a fresh process would.
	var setups []float64
	setUp := func(samples int) error {
		for r := 0; r < samples; r++ {
			runtime.GC()
			t0 := time.Now()
			for b := 0; b < libSetupBatch; b++ {
				e := engine.New(engine.Config{})
				if err := w.open(e); err != nil {
					return fmt.Errorf("open: %w", err)
				}
				rels, err := w.run(e, probe, nil, -1, 0)
				if err := checkCounts(rels, err, probeWant); err != nil {
					return fmt.Errorf("set-up probe: %w", err)
				}
			}
			setups = append(setups, time.Since(t0).Seconds()/libSetupBatch)
			if tr != nil {
				req := int64(len(setups))
				root := tr.begin("setup.replay", -1, req)
				for _, p := range w.plans() {
					if err := compileReplay(tr, root, req, p); err != nil {
						return fmt.Errorf("compile replay: %w", err)
					}
				}
				tr.end(root)
			}
		}
		return nil
	}
	if err := setUp(libSetupSamples / 2); err != nil {
		return res, err
	}

	e := engine.New(engine.Config{})
	if err := w.open(e); err != nil {
		return res, fmt.Errorf("open: %w", err)
	}
	// Warm-up: one pass over the pool, so lazy DFA states are built
	// before timing, as they are in a long-running process.
	for _, d := range docs {
		rels, err := w.run(e, d, nil, -1, 0)
		if err := checkCounts(rels, err, want[d]); err != nil {
			return res, fmt.Errorf("warm-up: %w", err)
		}
	}

	runtime.GC()
	win := window{rt0: readRuntime(), reg0: scrapeEngine(e), st0: e.Stats()}
	cpu0 := selfCPU()
	start := time.Now()
	limit := o.seconds * maxWindowScale
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= o.seconds && win.ops >= minLatencySamples) || el >= limit {
			break
		}
		d := docs[i%len(docs)]
		// A traced run traces every other pass over the pool, so traced
		// and untraced operations see the same documents.
		traced := tr != nil && (i/len(docs))%2 == 1
		t0 := time.Now()
		var rels []*span.Relation
		var err error
		if traced {
			root := tr.begin(o.workload+".op", -1, int64(i))
			rels, err = w.run(e, d, tr, root, int64(i))
			tr.end(root)
		} else {
			rels, err = w.run(e, d, nil, -1, 0)
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		win.ops++
		win.bytes += int64(len(d))
		err = checkCounts(rels, err, want[d])
		ok := err == nil
		if !ok {
			win.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
		if traced {
			win.tracedLat = append(win.tracedLat, ms)
			win.tracedBytes += int64(len(d))
		} else {
			win.lat = append(win.lat, ms)
			if ok && ms <= float64(w.slo())/1e6 {
				res.withinSLO++
			}
		}
	}
	win.wall = time.Since(start)
	win.cpu = selfCPU() - cpu0
	win.rt1, win.reg1, win.st1 = readRuntime(), scrapeEngine(e), e.Stats()

	res.attempted, res.failed = win.ops, win.failed
	mb := float64(win.bytes) / 1e6
	res.samples = len(win.lat)
	res.metrics["throughput_mb_s"] = mb / win.wall.Seconds()
	res.metrics["latency_p50_ms"] = percentile(win.lat, 0.50)
	res.metrics["latency_p99_ms"] = percentile(win.lat, 0.99)
	res.metrics["slo_share"] = ratio(float64(res.withinSLO), float64(len(win.lat)))
	res.metrics["cpu_ms_per_mb"] = float64(win.cpu.Nanoseconds()) / 1e6 / mb
	rss, err := peakRSSMB("self")
	if err != nil {
		return res, err
	}
	res.metrics["peak_rss_mb"] = rss
	if err := setUp(libSetupSamples - libSetupSamples/2); err != nil {
		return res, err
	}
	res.metrics["setup_s"] = median(setups)

	if tr != nil {
		libLayers(res.metrics, &win, mb)
		untracedMB := mb - float64(win.tracedBytes)/1e6
		msPerMB := sum(win.lat) / untracedMB
		n, err := w.replay(e, want, tr, time.Now().Add(replayTime(o.seconds)), msPerMB, res.metrics)
		if err != nil {
			return res, fmt.Errorf("replay: %w", err)
		}
		res.failed += n
		spans := tr.snapshot()
		lt := byName(spans, selfTimes(spans))
		res.metrics["engine.plan_ms"] = meanSelfMS(lt, "engine.plan")
		res.metrics["engine.extract_ms"] = meanSelfMS(lt, "engine.extract")
		compileLayers(res.metrics, lt)
		tracedPerMB := sum(win.tracedLat) / (float64(win.tracedBytes) / 1e6)
		res.metrics["trace.overhead_share"] = ratio(tracedPerMB-msPerMB, msPerMB)
		res.spans = tr
	}
	return res, nil
}

// compileLayers sets the plan-compilation metrics from the compile
// replay spans: the mean time per plan of Compile and of the decision
// procedures.
func compileLayers(m map[string]float64, lt map[string]*layerTime) {
	m["regexformula.compile_ms"] = meanDurMS(lt, "regexformula.compile")
	m["core.verdicts_ms"] = meanDurMS(lt, "core.verdicts")
}

// replayTime bounds the per-layer replay of a traced run.
func replayTime(seconds time.Duration) time.Duration { return seconds / 4 }

// libLayers fills the per-layer metrics every library workload
// measures the same way: engine counters, evaluation-core counters and
// the Go runtime, as deltas over the timed window.
func libLayers(m map[string]float64, win *window, mb float64) {
	hits := float64(win.st1.PlanCache.Hits - win.st0.PlanCache.Hits)
	misses := float64(win.st1.PlanCache.Misses - win.st0.PlanCache.Misses)
	m["engine.plan_hit_ratio"] = ratio(hits, hits+misses)

	d := func(name string) float64 { return delta(win.reg0, win.reg1, name) }
	docBytes := d("spanners_eval_doc_bytes_total")
	m["vsa.prefilter_skip_ratio"] = ratio(d("spanners_eval_prefilter_skipped_bytes_total"), docBytes)
	m["vsa.window_byte_ratio"] = ratio(d("spanners_eval_window_bytes_total"), docBytes)
	loc, sim := d("spanners_eval_localize_seconds_total"), d("spanners_eval_sim_seconds_total")
	m["vsa.sim_share"] = ratio(sim, loc+sim)

	m["runtime.alloc_bytes_per_byte"] = ratio(win.rt1.allocBytes-win.rt0.allocBytes, mb*1e6)
	m["runtime.gc_cpu_share"] = ratio(win.rt1.gcCPU-win.rt0.gcCPU, win.rt1.usedCPU-win.rt0.usedCPU)
}

var bg = context.Background()
