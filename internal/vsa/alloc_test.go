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
