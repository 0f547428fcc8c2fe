package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/regexformula"
)

// Every workload generator is a function of the seed alone: the same
// seed gives byte-identical inputs, another seed different ones.
func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	pools := map[string]func(seed uint64) any{
		"ingest": func(seed uint64) any {
			w, err := newIngest(seed)
			if err != nil {
				t.Fatal(err)
			}
			return w.docs
		},
		"scan": func(seed uint64) any {
			w, err := newScan(seed)
			if err != nil {
				t.Fatal(err)
			}
			return w.docs
		},
		"fanout": func(seed uint64) any {
			w, err := newFanout(seed)
			if err != nil {
				t.Fatal(err)
			}
			return []any{w.markers, w.docs}
		},
		"serve": func(seed uint64) any {
			w := newServe(seed, 2*time.Second)
			return []any{w.docs, w.warm, w.win}
		},
	}
	for _, name := range workloadNames() {
		gen := pools[name]
		if gen == nil {
			t.Errorf("workload %s has no determinism check", name)
			continue
		}
		a, b, c := gen(1), gen(1), gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestDocumentShapes(t *testing.T) {
	in, err := newIngest(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range in.docs {
		if want := docSizes(ingestDocBytes, ingestPool)[i]; len(d) != want || !strings.Contains(d, "bad ") {
			t.Fatalf("ingest document of %d bytes, want %d dense with matches", len(d), want)
		}
	}
	sc, err := newScan(3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string][]int{
		"dense":       docSizes(scanDenseBytes, scanPool),
		"sparse":      docSizes(scanSparseBytes, scanPool),
		"nonmatching": docSizes(scanNonBytes, scanPool),
	}
	for i, d := range sc.docs {
		r := sc.regimes[i]
		if want := sizes[r][i/len(scanRegimes)]; len(d) != want {
			t.Errorf("%s document of %d bytes, want %d", r, len(d), want)
		}
		n := strings.Count(d, "bad ")
		switch r {
		case "nonmatching":
			if strings.Contains(d, "bad") {
				t.Errorf("non-matching document contains \"bad\"")
			}
		case "sparse":
			if want := len(d) / scanSparseEvery; n < want-1 || n > want+1 {
				t.Errorf("sparse document has %d matches, want about %d", n, want)
			}
		case "dense":
			if n < len(d)/400 {
				t.Errorf("dense document has only %d matches in %d bytes", n, len(d))
			}
		}
	}
	fo, err := newFanout(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fo.docs {
		present := 0
		for _, m := range fo.markers {
			if strings.Contains(d, m) {
				present++
			}
		}
		if present != fanoutQueries*3/4 {
			t.Errorf("fanout document holds %d of %d markers, want %d", present, fanoutQueries, fanoutQueries*3/4)
		}
		for c := byte('a'); c <= 'z'; c++ {
			if !strings.ContainsRune(d, rune(c)) {
				t.Errorf("fanout filler lacks %q, so scans could skip to it", c)
			}
		}
	}
}

// countAfter is the serve workload's in-process expected result; it
// must agree with the spanner it stands for.
func TestCountAfterMatchesSpanner(t *testing.T) {
	const k = 3
	m := serveMarker(k)
	p, err := regexformula.Compile(serveFormula(k))
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{
		m + " flavor.",
		"x" + m + " flavor " + m + " taste",
		m + " " + m + " " + m + ".",
		"tea " + m + " .coffee " + m,
		m + " " + m,
		"\n" + m + " a!" + m + " b?" + m + " c",
	}
	r := newRand(9, streamServeDocs)
	z := newZipf(servePlans, serveZipfS)
	for i := 0; i < 6; i++ {
		docs = append(docs, serveDoc(r, z, 4<<10))
	}
	for _, d := range docs {
		if got, want := countAfter(d, m), p.Eval(d).Len(); got != want {
			t.Errorf("countAfter(%.40q) = %d, Eval found %d", d, got, want)
		}
	}
}

// The serve plans must not fit spand's plan cache, yet the Zipf law
// must make a cache useful: hot plans hit, the long tail misses and
// pays compilation and the decision procedures.
func TestZipfWorkingSetAgainstCache(t *testing.T) {
	z := newZipf(servePlans, serveZipfS)
	if servePlans <= 2*serveCache {
		t.Fatalf("%d plans against a %d-plan cache: the working set fits", servePlans, serveCache)
	}
	if tail := 1 - z.cdf[serveCache-1]; tail < 0.1 || tail > 0.4 {
		t.Errorf("probability outside the %d most popular plans = %.3f, want between 0.1 and 0.4", serveCache, tail)
	}
	w := newServe(1, runSeconds*time.Second)
	seen := map[int]int{}
	for _, q := range w.win {
		for _, k := range q.plans {
			seen[k]++
		}
	}
	if len(seen) <= serveCache {
		t.Errorf("a run touches %d distinct plans, not more than the %d-plan cache", len(seen), serveCache)
	}
	if seen[0] < seen[servePlans/2] {
		t.Errorf("plan 0 drawn %d times, plan %d %d times: not Zipf", seen[0], servePlans/2, seen[servePlans/2])
	}
}

func TestScheduleShape(t *testing.T) {
	z := newZipf(servePlans, serveZipfS)
	const n = 999
	d := 3 * time.Second
	reqs := schedule(newRand(5, streamServeSchedule), z, n, d)
	if len(reqs) != n {
		t.Fatalf("%d requests, want %d", len(reqs), n)
	}
	sizes := make([]int, len(serveDocSizes))
	for i, q := range reqs {
		if q.at < 0 || q.at >= d || (i > 0 && q.at < reqs[i-1].at) {
			t.Fatalf("request %d due at %v: not sorted within [0, %v)", i, q.at, d)
		}
		sizes[q.size]++
		if batch := i%serveBatchOne == serveBatchOne-1; batch != (q.kind == kindBatch) {
			t.Errorf("request %d kind %v", i, q.kind)
		}
		if q.kind == kindBatch && len(q.plans) != serveBatchQ {
			t.Errorf("batch request %d has %d queries", i, len(q.plans))
		}
	}
	for c, k := range sizes {
		if k != n/len(serveDocSizes) {
			t.Errorf("size class %d drawn %d times, want %d", c, k, n/len(serveDocSizes))
		}
	}
}
