package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// scan runs whole-document single-query engine.Extract on a sequential
// plan (no splitter) over the three regimes of the evaluation core:
// dense matches, sparse matches (one per 64 KiB) and no matches. The
// vsa forward scan, the prefilter gate and skip, the window localizer
// and the tagged simulation do the work; the segmenter, the executor
// and HTTP do none. It runs the same vsa code as ingest, but on whole
// documents instead of tiny segments.
type scan struct {
	docs    []string
	regimes []string // regime of each document
	p       *vsa.Automaton
	req     engine.Request
}

var scanRegimes = []string{"dense", "sparse", "nonmatching"}

func newScan(seed uint64) (*scan, error) {
	w := &scan{req: engine.Request{Spanner: sentimentFormula}}
	r := newRand(seed, streamScan)
	// One document of each regime per round, so every seed runs the
	// same regime mix.
	dense, sparse, non := docSizes(scanDenseBytes, scanPool), docSizes(scanSparseBytes, scanPool), docSizes(scanNonBytes, scanPool)
	for i := 0; i < scanPool; i++ {
		w.docs = append(w.docs,
			reviewDoc(r, dense[i]),
			proseDoc(r, sparse[i], scanSparseEvery),
			proseDoc(r, non[i], 0))
		w.regimes = append(w.regimes, scanRegimes...)
	}
	var err error
	if w.p, err = regexformula.Compile(sentimentFormula); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *scan) params() map[string]any {
	return map[string]any{"dense_bytes": docSizes(scanDenseBytes, scanPool), "sparse_bytes": docSizes(scanSparseBytes, scanPool),
		"nonmatching_bytes": docSizes(scanNonBytes, scanPool), "sparse_match_every": scanSparseEvery, "pool_per_regime": scanPool,
		"slo_ms": scanSLO.Milliseconds(), "spanner": "sentiment"}
}
func (w *scan) slo() time.Duration { return scanSLO }
func (w *scan) pool() []string     { return w.docs }
func (w *scan) plans() []planPair  { return []planPair{{w.req.Spanner, ""}} }

func (w *scan) open(e *engine.Engine) error {
	plan, _, err := e.Plan(bg, w.req)
	if err != nil {
		return err
	}
	if plan.Strategy != engine.StrategySequential {
		return fmt.Errorf("scan plan is %v, want sequential", plan.Strategy)
	}
	return nil
}

func (w *scan) run(e *engine.Engine, doc string, tr *tracer, parent int32, req int64) ([]*span.Relation, error) {
	sp := tr.begin("engine.plan", parent, req)
	plan, _, err := e.Plan(bg, w.req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.extract", parent, req)
	rel, err := e.Extract(bg, plan, doc)
	tr.end(sp)
	return []*span.Relation{rel}, err
}

func (w *scan) oracle(doc string) []*span.Relation { return []*span.Relation{w.p.Eval(doc)} }

func (w *scan) reference(doc string) error {
	if !w.p.EvalReference(doc).Equal(w.p.Eval(doc)) {
		return fmt.Errorf("Eval differs from EvalReference")
	}
	return nil
}

// replay evaluates each document with the plan's compiled automaton,
// under a span named for its regime, for the evaluation core's
// per-regime throughput.
func (w *scan) replay(e *engine.Engine, want map[string][]int, tr *tracer, until time.Time, _ float64, out map[string]float64) (int, error) {
	plan, _, err := e.Plan(bg, w.req)
	if err != nil {
		return 0, err
	}
	p := plan.Spanner()
	bytes := map[string]int64{}
	failed := 0
	for i := 0; i < len(w.docs) || time.Now().Before(until); i++ {
		k := i % len(w.docs)
		doc, regime := w.docs[k], w.regimes[k]
		root := tr.begin("scan.replay", -1, int64(i))
		sp := tr.begin("vsa.eval."+regime, root, int64(i))
		rel := p.Eval(doc)
		tr.end(sp)
		tr.end(root)
		if rel.Len() != want[doc][0] {
			failed++
		}
		bytes[regime] += int64(len(doc))
	}
	spans := tr.snapshot()
	lt := byName(spans, selfTimes(spans))
	for _, r := range scanRegimes {
		if l := lt["vsa.eval."+r]; l != nil {
			out["vsa.eval_mb_s."+r] = ratio(float64(bytes[r])/1e6, float64(l.SelfNS)/1e9)
		}
	}
	return failed, nil
}
