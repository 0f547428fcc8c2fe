package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// fanout answers standing queries with engine.ExtractBatch: each query
// is a distinct rare literal, and the filler contains every letter, so
// byte skipping cannot help. The fused vsa.Multi pass, the demux and
// the per-query admission bitmap do the work. Each document holds the
// markers of only three quarters of the queries, so the admission
// bitmap has members to exclude.
type fanout struct {
	docs    []string
	markers []string
	members []*vsa.Automaton // oracle automata, one per query
	req     engine.BatchRequest
}

func newFanout(seed uint64) (*fanout, error) {
	w := &fanout{markers: fanoutMarkers()}
	for _, m := range w.markers {
		f := fanoutFormula(m)
		w.req.Spanners = append(w.req.Spanners, f)
		a, err := regexformula.Compile(f)
		if err != nil {
			return nil, err
		}
		w.members = append(w.members, a)
	}
	r := newRand(seed, streamFanout)
	for _, n := range docSizes(fanoutDocBytes, fanoutPool) {
		perm := r.Perm(len(w.markers))[:len(w.markers)*3/4]
		present := make([]string, len(perm))
		for j, p := range perm {
			present[j] = w.markers[p]
		}
		w.docs = append(w.docs, fanoutDoc(r, n, present))
	}
	return w, nil
}

func (w *fanout) params() map[string]any {
	return map[string]any{"queries": fanoutQueries, "doc_bytes": docSizes(fanoutDocBytes, fanoutPool), "pool": fanoutPool,
		"present_share": 0.75, "slo_ms": fanoutSLO.Milliseconds()}
}
func (w *fanout) slo() time.Duration { return fanoutSLO }
func (w *fanout) pool() []string     { return w.docs }

func (w *fanout) plans() []planPair {
	out := make([]planPair, len(w.req.Spanners))
	for i, s := range w.req.Spanners {
		out[i] = planPair{spanner: s}
	}
	return out
}

func (w *fanout) open(e *engine.Engine) error {
	plan, _, err := e.PlanBatch(bg, w.req)
	if err != nil {
		return err
	}
	for i := range w.req.Spanners {
		if err := plan.BatchErr(i); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

func (w *fanout) run(e *engine.Engine, doc string, tr *tracer, parent int32, req int64) ([]*span.Relation, error) {
	sp := tr.begin("engine.plan", parent, req)
	plan, _, err := e.PlanBatch(bg, w.req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("engine.extract", parent, req)
	res, err := e.ExtractBatch(bg, plan, doc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := make([]*span.Relation, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Rel
	}
	return out, nil
}

func (w *fanout) oracle(doc string) []*span.Relation {
	out := make([]*span.Relation, len(w.members))
	for i, a := range w.members {
		out[i] = a.Eval(doc)
	}
	return out
}

// reference checks each query against EvalReference and against the
// literal's occurrence count.
func (w *fanout) reference(doc string) error {
	for i, a := range w.members {
		ref := a.EvalReference(doc)
		if !ref.Equal(a.Eval(doc)) {
			return fmt.Errorf("query %d: Eval differs from EvalReference", i)
		}
		if n := strings.Count(doc, w.markers[i]); ref.Len() != n {
			return fmt.Errorf("query %d: %d tuples for %d occurrences of %q", i, ref.Len(), n, w.markers[i])
		}
	}
	return nil
}

// replay evaluates each document with a benchmark-owned vsa.Multi over
// the same queries, for the fused pass's own throughput and counters.
func (w *fanout) replay(e *engine.Engine, want map[string][]int, tr *tracer, until time.Time, _ float64, out map[string]float64) (int, error) {
	m := vsa.NewMulti(w.members...)
	var mm vsa.MultiMetrics
	m.SetMetrics(&mm)
	m.Prepare()
	var bytes int64
	docs, failed := 0, 0
	for i := 0; i < len(w.docs) || time.Now().Before(until); i++ {
		doc := w.docs[i%len(w.docs)]
		root := tr.begin("fanout.replay", -1, int64(i))
		sp := tr.begin("vsa.multi_eval", root, int64(i))
		rels := m.Eval(doc)
		tr.end(sp)
		tr.end(root)
		if !sameCounts(rels, want[doc]) {
			failed++
		}
		bytes += int64(len(doc))
		docs++
	}
	spans := tr.snapshot()
	lt := byName(spans, selfTimes(spans))
	if l := lt["vsa.multi_eval"]; l != nil {
		out["vsa.multi_mb_s"] = ratio(float64(bytes)/1e6, float64(l.SelfNS)/1e9)
	}
	out["vsa.multi_admission_skip_ratio"] = float64(mm.AdmissionSkips.Load()) / float64(docs*len(w.members))
	out["vsa.multi_member_fallbacks"] = float64(mm.MemberFallbacks.Load()) / float64(docs)
	return failed, nil
}
