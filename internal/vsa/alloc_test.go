//go:build !race

// The race detector's sync.Pool drops pooled items at random, so the
// pooled scratch would be reallocated at random; these guards run only
// in normal builds.

package vsa_test

import (
	"strings"
	"testing"

	"repro/internal/library"
	"repro/internal/span"
	"repro/internal/vsa"
)

// TestEvalAppendWarmAllocFree guards the per-segment cost of the split
// path: once the automaton's caches and the pooled window scratch are
// warm, a segment that the factor gate rejects, and one that carries
// the factor but that the forward scan rejects, evaluate without a
// single heap allocation.
func TestEvalAppendWarmAllocFree(t *testing.T) {
	p := library.NegativeSentiment() // mandatory factor "bad "
	if f := p.Prefilter().Factor; f == "" {
		t.Fatalf("no mandatory factor: %+v", p.Prefilter())
	}
	rel := span.NewRelation(p.Vars...)
	var arena span.TupleArena
	for _, tc := range []struct {
		name, seg string
		factor    bool
	}{
		{"factor-free", "the tea was fine and the staff were friendly", false},
		// "bad " never follows a boundary byte, so no run completes.
		{"factor-bearing, scan-rejected", strings.Repeat("xbad tea and more words here ", 8), true},
	} {
		if strings.Contains(tc.seg, p.Prefilter().Factor) != tc.factor {
			t.Fatalf("%s: fixture does not exercise the intended path", tc.name)
		}
		by := span.Span{Start: 101, End: 101 + len(tc.seg)}
		p.EvalAppend(tc.seg, by, rel, &arena) // warm the DFA, skip cache and pool
		allocs := testing.AllocsPerRun(200, func() { p.EvalAppend(tc.seg, by, rel, &arena) })
		if allocs != 0 {
			t.Errorf("%s: warm EvalAppend allocates %v times per segment, want 0", tc.name, allocs)
		}
		if rel.Len() != 0 {
			t.Fatalf("%s: segment unexpectedly matched: %v", tc.name, rel)
		}
	}
}

// TestMultiEvalAppendWarmAllocFree is the fused-scan counterpart of
// TestEvalAppendWarmAllocFree, for a one-member and a two-member group:
// once warm, a segment that no member's factor admits, and one that
// carries every factor but that the fused forward scan rejects,
// evaluate without a single heap allocation.
func TestMultiEvalAppendWarmAllocFree(t *testing.T) {
	neg := library.NegativeSentiment() // mandatory factor "bad "
	fin := library.FinanceEvents()     // mandatory factor " paid "
	for _, tc := range []struct {
		name    string
		members []*vsa.Automaton
	}{
		{"one-member", []*vsa.Automaton{neg}},
		{"two-member", []*vsa.Automaton{neg, fin}},
	} {
		m := vsa.NewMulti(tc.members...)
		rels := make([]*span.Relation, m.Len())
		for i := range rels {
			rels[i] = span.NewRelation(m.Member(i).Vars...)
		}
		rel := func(i int) *span.Relation { return rels[i] }
		var arena span.TupleArena
		for _, seg := range []struct {
			name, doc string
			factor    bool
		}{
			{"factor-free", "the tea was fine and the staff were friendly", false},
			// "bad " never follows a boundary byte, and " paid " sits
			// between lowercase words, so no run of either completes.
			{"factor-bearing, scan-rejected", strings.Repeat("xbad tea and zz paid more words here ", 8), true},
		} {
			for _, a := range tc.members {
				if strings.Contains(seg.doc, a.Prefilter().Factor) != seg.factor {
					t.Fatalf("%s/%s: fixture does not exercise the intended path", tc.name, seg.name)
				}
			}
			by := span.Span{Start: 101, End: 101 + len(seg.doc)}
			m.EvalAppend(seg.doc, by, rel, &arena) // warm the DFA, skip cache and pool
			allocs := testing.AllocsPerRun(200, func() { m.EvalAppend(seg.doc, by, rel, &arena) })
			if allocs != 0 {
				t.Errorf("%s/%s: warm Multi.EvalAppend allocates %v times per segment, want 0", tc.name, seg.name, allocs)
			}
			for i, r := range rels {
				if r.Len() != 0 {
					t.Fatalf("%s/%s: member %d unexpectedly matched: %v", tc.name, seg.name, i, r)
				}
			}
		}
	}
}

// TestEvalBoolWarmAllocFree: once warm, EvalBool on a segment that
// carries the factor but that the scan rejects allocates nothing — its
// skip gate is bound once per pooled scratch, not per call.
func TestEvalBoolWarmAllocFree(t *testing.T) {
	p := library.NegativeSentiment()
	seg := strings.Repeat("xbad tea and more words here ", 8)
	if !strings.Contains(seg, p.Prefilter().Factor) {
		t.Fatal("fixture does not carry the factor")
	}
	if p.EvalBool(seg) { // warms the DFA, skip cache and pool
		t.Fatal("segment unexpectedly accepted")
	}
	if allocs := testing.AllocsPerRun(200, func() { p.EvalBool(seg) }); allocs != 0 {
		t.Errorf("warm EvalBool allocates %v times per segment, want 0", allocs)
	}
}
