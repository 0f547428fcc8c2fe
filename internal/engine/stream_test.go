package engine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/parallel"
	"repro/internal/regexformula"
)

// collect runs the segmenter over doc in chunks of size n and returns
// all emitted segments in order.
func collect(doc string, n int) []parallel.Segment {
	g := newSegmenter(library.Sentences())
	var out []parallel.Segment
	for lo := 0; lo < len(doc); lo += n {
		hi := lo + n
		if hi > len(doc) {
			hi = len(doc)
		}
		out = append(out, g.feed([]byte(doc[lo:hi]))...)
	}
	return append(out, g.flush()...)
}

func TestSegmenterMatchesOneShotSplit(t *testing.T) {
	docs := []string{
		"",
		".",
		"no terminator at all",
		"one. two! three? four\nfive.",
		"trailing terminator.",
		"..!!..",
		"a.b.c.d.e.f.g.h",
	}
	s := library.Sentences()
	for _, doc := range docs {
		want := parallel.SegmentsOf(doc, s.Split(doc))
		for n := 1; n <= len(doc)+1; n++ {
			got := collect(doc, n)
			if len(got) != len(want) {
				t.Fatalf("doc %q chunk %d: %d segments, want %d (%v vs %v)", doc, n, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("doc %q chunk %d: segment %d = %+v, want %+v", doc, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSegmenterCarryKeepsBufferSmall(t *testing.T) {
	// After feeding many complete sentences the buffer must hold only
	// the still-open tail, not the whole document.
	g := newSegmenter(library.Sentences())
	for i := 0; i < 100; i++ {
		g.feed([]byte("a sentence here. "))
	}
	if len(g.buf) > 64 {
		t.Fatalf("buffer grew to %d bytes; carry-over is not trimming", len(g.buf))
	}
}

// collectScan runs the scanner-backed segmenter over doc in chunks of
// size n.
func collectScan(t *testing.T, s *core.Splitter, doc string, n int) []parallel.Segment {
	t.Helper()
	g, ok := newScanSegmenter(s, nil)
	if !ok {
		t.Fatalf("splitter has no compiled scanner")
	}
	var out []parallel.Segment
	for lo := 0; lo < len(doc); lo += n {
		hi := lo + n
		if hi > len(doc) {
			hi = len(doc)
		}
		out = append(out, g.feed([]byte(doc[lo:hi]))...)
	}
	return append(out, g.flush()...)
}

func TestScanSegmenterMatchesOneShotSplit(t *testing.T) {
	docs := []string{
		"",
		".",
		"no terminator at all",
		"one. two! three? four\nfive.",
		"trailing terminator.",
		"..!!..",
		"a.b.c.d.e.f.g.h",
	}
	s := library.Sentences()
	for _, doc := range docs {
		want := parallel.SegmentsOf(doc, s.Split(doc))
		for n := 1; n <= len(doc)+1; n++ {
			got := collectScan(t, s, doc, n)
			if len(got) != len(want) {
				t.Fatalf("doc %q chunk %d: %d segments, want %d (%v vs %v)", doc, n, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("doc %q chunk %d: segment %d = %+v, want %+v", doc, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestScanSegmenterCarryKeepsBufferSmall(t *testing.T) {
	g, ok := newScanSegmenter(library.Sentences(), nil)
	if !ok {
		t.Fatal("sentence splitter has no compiled scanner")
	}
	for i := 0; i < 100; i++ {
		g.feed([]byte("a sentence here. "))
	}
	if g.buffered() > 64 {
		t.Fatalf("buffer grew to %d bytes; anchor trimming is not working", g.buffered())
	}
	if g.fb != nil {
		t.Fatal("sentence scanner bailed to the fallback segmenter")
	}
}

func TestScanSegmenterBailFallsBackWithoutDuplicates(t *testing.T) {
	// Blocks are valid only on documents ending in '!': the scanner can
	// never commit a close mid-document, so it bails at the first
	// separator and the fallback segmenter must take over from the
	// anchor without duplicating or dropping segments.
	auto := regexformula.MustCompile("(x{[^.!]*})(\\.[^.!]*)*!|[^.!]*(\\.[^.!]*)*\\.(x{[^.!]*})(\\.[^.!]*)*!")
	s := core.MustSplitter(auto)
	if _, ok := s.NewScanRun(); !ok {
		t.Skip("splitter has no compiled scanner")
	}
	for _, doc := range []string{"ab.cd.ef!", "ab.cd", "!", "a.b.c.d.e!"} {
		want := parallel.SegmentsOf(doc, s.SplitReference(doc))
		for n := 1; n <= len(doc)+1; n++ {
			got := collectScan(t, s, doc, n)
			if len(got) != len(want) {
				t.Fatalf("doc %q chunk %d: %d segments, want %d (%v vs %v)", doc, n, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("doc %q chunk %d: segment %d = %+v, want %+v", doc, n, i, got[i], want[i])
				}
			}
		}
	}
}

// emptyFeedReader returns (0, nil) before every read of the underlying
// reader, so the streamed path sees an empty feed between any two real
// ones.
type emptyFeedReader struct {
	r    io.Reader
	skip bool
}

func (r *emptyFeedReader) Read(p []byte) (int, error) {
	if r.skip = !r.skip; r.skip {
		return 0, nil
	}
	return r.r.Read(p)
}

// TestStreamPerFeedDispatchMatchesExtract pins the streamed path's
// dispatch — each read's segments go out as one batch — to whole-
// document Extract: the relation and the segment counter must not
// depend on the read size, on how the reader fragments reads, or on
// empty reads in between.
func TestStreamPerFeedDispatchMatchesExtract(t *testing.T) {
	const sentiment = `(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`
	docs := map[string]string{
		// A quarter of the sentences match: thousands of segments per
		// 64 KiB read.
		"dense reviews": strings.Join(corpus.Reviews(11, 320), "\n"),
		"sparse corpus": corpus.SparseSentiment(3, 66<<10, 2048),
	}
	readers := map[string]func(io.Reader) io.Reader{
		"full":     func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data+EOF": iotest.DataErrReader,
		"empty":    func(r io.Reader) io.Reader { return &emptyFeedReader{r: r} },
	}
	for name, doc := range docs {
		if len(doc) <= 64<<10 {
			t.Fatalf("%s: %d bytes fit in one 64 KiB read", name, len(doc))
		}
		for _, chunk := range []int{1, 7, 4096, 64 << 10} {
			e := New(Config{Workers: 4, ChunkSize: chunk})
			plan := mustPlan(t, e, Request{Spanner: sentiment, Splitter: sentenceFormula})
			if !e.WillStream(plan) {
				t.Fatalf("plan does not stream (verdicts %+v)", plan.Verdicts)
			}
			want, err := e.Extract(context.Background(), plan, doc)
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() == 0 {
				t.Fatalf("%s: no tuples", name)
			}
			nsegs := uint64(len(plan.s.Split(doc)))
			for rname, wrap := range readers {
				what := fmt.Sprintf("%s, chunk %d, %s reader", name, chunk, rname)
				before := e.Stats().Segments
				got, err := e.ExtractReader(context.Background(), plan, wrap(strings.NewReader(doc)))
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: streamed %d tuples != Extract %d", what, got.Len(), want.Len())
				}
				if d := e.Stats().Segments - before; d != nsegs {
					t.Fatalf("%s: Segments grew by %d, want %d", what, d, nsegs)
				}
			}
		}
	}
}
