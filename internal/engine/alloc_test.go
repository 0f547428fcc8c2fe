//go:build !race

// Allocation guards run only in normal builds: race instrumentation and
// its randomized sync.Pool make allocation counts nondeterministic.

package engine

import (
	"strings"
	"testing"

	"repro/internal/library"
)

// TestScanSegmenterFeedAllocsPerFeed guards the streamed segmenter's
// cost: a feed allocates a constant number of times (the covered range
// as one string, the segment slice, the scanner's per-chunk setup)
// however many segments it completes — never one string per segment.
func TestScanSegmenterFeedAllocsPerFeed(t *testing.T) {
	allocs := func(sentences int) float64 {
		g, ok := newScanSegmenter(library.Sentences(), nil)
		if !ok {
			t.Fatal("sentence splitter has no compiled scanner")
		}
		chunk := []byte(strings.Repeat("the tea was bad. ", sentences))
		g.feed(chunk) // warm the scanner DFA and grow the buffers
		var segs int
		n := testing.AllocsPerRun(50, func() { segs = len(g.feed(chunk)) })
		if segs != sentences {
			t.Fatalf("feed completed %d segments, want %d", segs, sentences)
		}
		return n
	}
	few, many := allocs(2), allocs(500)
	if many > few {
		t.Fatalf("a feed of 500 segments allocates %v times, of 2 segments %v: allocation per segment", many, few)
	}
}
