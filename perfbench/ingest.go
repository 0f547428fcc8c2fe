package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// ingest streams large dense review documents through
// engine.ExtractReader on the cached split-parallel plan sentiment ×
// sentence splitter, which the locality procedure proves local, so the
// document is segmented while it is read. The segmenter (core
// ScanRun), the work-stealing executor (parallel) and its merge do the
// work; plan compilation and HTTP do none.
type ingest struct {
	docs []string
	p    *vsa.Automaton // oracle spanner
	s    *core.Splitter // oracle splitter
	req  engine.Request
}

// readChunk is the engine's default streaming read size, which the
// replay's segmenter feeds in.
const readChunk = 64 << 10

func newIngest(seed uint64) (*ingest, error) {
	w := &ingest{req: engine.Request{Spanner: sentimentFormula, Splitter: sentenceFormula}}
	r := newRand(seed, streamIngest)
	for _, n := range docSizes(ingestDocBytes, ingestPool) {
		w.docs = append(w.docs, reviewDoc(r, n))
	}
	var err error
	if w.p, err = regexformula.Compile(sentimentFormula); err != nil {
		return nil, err
	}
	sa, err := regexformula.Compile(sentenceFormula)
	if err != nil {
		return nil, err
	}
	if w.s, err = core.NewSplitter(sa); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *ingest) params() map[string]any {
	return map[string]any{"doc_bytes": docSizes(ingestDocBytes, ingestPool), "pool": ingestPool, "chunk_bytes": readChunk,
		"slo_ms": ingestSLO.Milliseconds(), "spanner": "sentiment", "splitter": "sentences"}
}
func (w *ingest) slo() time.Duration { return ingestSLO }
func (w *ingest) pool() []string     { return w.docs }
func (w *ingest) plans() []planPair  { return []planPair{{w.req.Spanner, w.req.Splitter}} }

func (w *ingest) open(e *engine.Engine) error {
	plan, _, err := e.Plan(bg, w.req)
	if err != nil {
		return err
	}
	if !e.WillStream(plan) {
		return fmt.Errorf("plan does not stream (verdicts %+v)", plan.Verdicts)
	}
	return nil
}

func (w *ingest) run(e *engine.Engine, doc string, tr *tracer, parent int32, req int64) ([]*span.Relation, error) {
	sp := tr.begin("engine.plan", parent, req)
	plan, _, err := e.Plan(bg, w.req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.extract", parent, req)
	rel, err := e.ExtractReader(bg, plan, strings.NewReader(doc))
	tr.end(sp)
	return []*span.Relation{rel}, err
}

func (w *ingest) oracle(doc string) []*span.Relation { return []*span.Relation{w.p.Eval(doc)} }

func (w *ingest) reference(doc string) error {
	if !w.p.EvalReference(doc).Equal(w.p.Eval(doc)) {
		return fmt.Errorf("Eval differs from EvalReference")
	}
	got, want := w.s.Split(doc), w.s.SplitReference(doc)
	if !equalSpans(got, want) {
		return fmt.Errorf("Split differs from SplitReference (%d vs %d spans)", len(got), len(want))
	}
	segs, err := scanSegments(w.s, doc)
	if err != nil {
		return err
	}
	if len(segs) != len(want) {
		return fmt.Errorf("chunked ScanRun found %d segments, SplitReference %d", len(segs), len(want))
	}
	for i := range segs {
		if segs[i].Span != want[i] {
			return fmt.Errorf("chunked ScanRun segment %d differs from SplitReference", i)
		}
	}
	return nil
}

func equalSpans(a, b []span.Span) bool {
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

// scanSegments segments doc the way the engine's streaming path does:
// the splitter's resumable scanner fed readChunk bytes at a time.
func scanSegments(s *core.Splitter, doc string) ([]parallel.Segment, error) {
	run, ok := s.NewScanRun()
	if !ok {
		return nil, fmt.Errorf("splitter has no compiled scanner")
	}
	var spans []span.Span
	for lo := 0; lo < len(doc); lo += readChunk {
		if spans, ok = run.Feed([]byte(doc[lo:min(lo+readChunk, len(doc))]), spans); !ok {
			return nil, fmt.Errorf("scanner bailed")
		}
	}
	if spans, ok = run.Flush(spans); !ok {
		return nil, fmt.Errorf("scanner bailed at flush")
	}
	return parallel.SegmentsOf(doc, spans), nil
}

// replay runs each document through the layers ExtractReader composes,
// one after the other: core.scan (ScanRun Feed and Flush), then
// parallel.split_eval (SplitEvalCtx on the segments with a
// benchmark-owned ExecMetrics), then vsa.segment_eval, a calibration
// that evaluates the same segments sequentially with EvalAppend. The
// segments are below the evaluator's 4 KiB instrumentation threshold,
// so the engine's own counters do not see this work.
func (w *ingest) replay(e *engine.Engine, want map[string][]int, tr *tracer, until time.Time, msPerMB float64, out map[string]float64) (int, error) {
	plan, _, err := e.Plan(bg, w.req)
	if err != nil {
		return 0, err
	}
	ps, s := plan.Spanner(), plan.SplitterOf()
	var xm parallel.ExecMetrics
	opts := parallel.Options{Workers: runtime.GOMAXPROCS(0), Batch: 16, Metrics: &xm}
	var segments, bytes int64
	failed := 0
	for i := 0; i < len(w.docs) || time.Now().Before(until); i++ {
		doc := w.docs[i%len(w.docs)]
		req := int64(i)
		root := tr.begin("ingest.replay", -1, req)
		sp := tr.begin("core.scan", root, req)
		segs, err := scanSegments(s, doc)
		tr.end(sp)
		if err != nil {
			return failed, err
		}
		sp = tr.begin("parallel.split_eval", root, req)
		rel, err := parallel.SplitEvalCtx(bg, ps, segs, opts)
		tr.end(sp)
		if err != nil {
			return failed, err
		}
		sp = tr.begin("vsa.segment_eval", root, req)
		seq := span.NewRelation(ps.Vars...)
		var arena span.TupleArena
		for _, sg := range segs {
			ps.EvalAppend(sg.Text, sg.Span, seq, &arena)
		}
		seq.Dedupe()
		tr.end(sp)
		tr.end(root)
		if rel.Len() != want[doc][0] || seq.Len() != want[doc][0] {
			failed++
		}
		segments += int64(len(segs))
		bytes += int64(len(doc))
	}

	mb := float64(bytes) / 1e6
	spans := tr.snapshot()
	lt := byName(spans, selfTimes(spans))
	ms := func(name string) float64 {
		if l := lt[name]; l != nil {
			return float64(l.SelfNS) / 1e6
		}
		return 0
	}
	out["core.scan_mb_s"] = ratio(mb, ms("core.scan")/1e3)
	out["core.segments_per_mb"] = float64(segments) / mb
	workers := float64(opts.Workers)
	out["parallel.busy_share"] = ratio(float64(xm.BusyNS.Load()), float64(xm.RunNS.Load())*workers)
	out["parallel.chunks_per_mb"] = float64(xm.Chunks.Load()) / mb
	out["parallel.steals_per_mb"] = float64(xm.Steals.Load()) / mb
	out["parallel.merge_share"] = ratio(float64(xm.MergeNS.Snapshot().Sum)/1e6, ms("parallel.split_eval"))
	out["parallel.self_ms_per_mb"] = ms("parallel.split_eval") / mb
	out["vsa.segment_eval_ms_per_mb"] = ms("vsa.segment_eval") / mb
	// The share of the streamed call that the serial composition of its
	// layers does not account for: overlap lost to the reader pipeline,
	// dispatch and channel hand-off.
	layers := (ms("core.scan") + ms("parallel.split_eval")) / mb
	out["engine.reader_overhead_share"] = ratio(msPerMB-layers, msPerMB)
	return failed, nil
}
