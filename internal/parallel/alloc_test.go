//go:build !race

// The race detector's sync.Pool drops pooled items at random, so the
// evaluator's pooled scratch would be reallocated at random; this guard
// runs only in normal builds.

package parallel

import (
	"context"
	"strings"
	"testing"

	"repro/internal/library"
	"repro/internal/span"
)

// TestSplitEvalAllocsPerRunNotPerSegment guards the executor's
// per-segment cost: evaluating 1000 non-matching segments allocates
// only a constant number of times more than evaluating 10 — scheduling
// and setup, never one closure or scratch per segment.
func TestSplitEvalAllocsPerRunNotPerSegment(t *testing.T) {
	p := library.NegativeSentiment()
	// Carries the factor "bad ", so every segment runs the forward scan,
	// but no "bad " follows a boundary byte: no segment matches.
	text := strings.Repeat("xbad tea and more words ", 4)
	segs := func(n int) []Segment {
		out := make([]Segment, n)
		for i := range out {
			lo := 1 + i*len(text)
			out[i] = Segment{Span: span.Span{Start: lo, End: lo + len(text)}, Text: text}
		}
		return out
	}
	allocs := func(segments []Segment) float64 {
		opts := Options{Workers: 1, Batch: 8}
		SplitEvalCtx(context.Background(), p, segments, opts) // warm
		return testing.AllocsPerRun(20, func() {
			if rel, _ := SplitEvalCtx(context.Background(), p, segments, opts); rel.Len() != 0 {
				t.Fatalf("non-matching segments matched: %v", rel)
			}
		})
	}
	few, many := allocs(segs(10)), allocs(segs(1000))
	// The chunk list grows by appending (O(log n) allocations); anything
	// per segment would add ~990.
	if many-few > 16 {
		t.Fatalf("1000 segments allocate %v times, 10 segments %v: %v extra, want a constant", many, few, many-few)
	}
}
