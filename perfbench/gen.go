package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"time"
)

// The benchmark generates every input itself, from the seed alone, so
// a change to the program cannot change what the benchmark feeds it.
// The vocabularies imitate the repository's synthetic corpora: review
// text dense with "bad <word>" matches, encyclopedia-like prose without
// them, and filler prose that contains every lowercase letter.

var commonWords = []string{
	"the", "of", "and", "a", "to", "in", "is", "was", "he", "for", "it",
	"with", "as", "his", "on", "be", "at", "by", "had", "not", "are",
	"but", "from", "or", "have", "an", "they", "which", "one", "you",
	"were", "her", "all", "she", "there", "would", "their", "we", "him",
	"been", "has", "when", "who", "will", "more", "no", "if", "out",
}

var wikiNouns = []string{
	"history", "city", "river", "language", "population", "region",
	"school", "music", "science", "village", "country", "album",
	"station", "battle", "empire", "theory", "painter", "bridge",
}

var reviewWords = []string{
	"flavor", "taste", "price", "texture", "smell", "packaging",
	"aftertaste", "coffee", "tea", "chocolate", "sauce", "snack",
}

// fillerWords hold every lowercase letter between them, so no byte is
// rare enough in fanout documents for a scan to skip to it. The only
// 'q' is followed by 'u', so no filler word contains a query marker.
var fillerWords = []string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dogs",
	"while", "zebras", "vex", "judges", "and", "make", "a", "big",
	"sphinx", "of", "quartz", "wait", "in", "cold", "hall",
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Generator streams: each input family draws from its own stream, so
// adding a family never shifts another's inputs.
const (
	streamIngest uint64 = iota + 1
	streamScan
	streamFanout
	streamServeDocs
	streamServeSchedule
	streamServeWarmup
	streamSample
)

func pick(r *rand.Rand, words []string) string { return words[r.IntN(len(words))] }

// reviewDoc returns exactly n bytes of review text: newline-separated
// reviews of one to four sentences, a quarter of the sentences holding
// a "bad <word>" match of the sentiment spanner.
func reviewDoc(r *rand.Rand, n int) string {
	var b strings.Builder
	b.Grow(n + 128)
	for b.Len() < n {
		for s, k := 0, 1+r.IntN(4); s < k; s++ {
			if r.IntN(4) == 0 {
				for j, pre := 0, r.IntN(4); j < pre; j++ {
					b.WriteString(pick(r, commonWords))
					b.WriteByte(' ')
				}
				b.WriteString("bad ")
				b.WriteString(pick(r, reviewWords))
			} else {
				for j, w := 0, 4+r.IntN(8); j < w; j++ {
					if j > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(pick(r, reviewWords))
				}
			}
			b.WriteByte('.')
		}
		b.WriteByte('\n')
	}
	return b.String()[:n]
}

// proseDoc returns exactly n bytes of encyclopedia-like sentences. With
// every > 0 a sentence matching the sentiment spanner is injected about
// every `every` bytes; with every = 0 the text never contains "bad".
func proseDoc(r *rand.Rand, n, every int) string {
	var b strings.Builder
	b.Grow(n + 128)
	next := every
	for b.Len() < n {
		if every > 0 && b.Len() >= next {
			next = b.Len() + every
			b.WriteString("the ")
			b.WriteString(pick(r, commonWords))
			b.WriteString(" was bad ")
			b.WriteString(pick(r, wikiNouns))
			b.WriteString(" today.")
			continue
		}
		for j, w := 0, 5+r.IntN(10); j < w; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			if r.IntN(3) == 0 {
				b.WriteString(pick(r, wikiNouns))
			} else {
				b.WriteString(pick(r, commonWords))
			}
		}
		b.WriteByte('.')
	}
	return b.String()[:n]
}

// fanoutMarker is the rare literal query i extracts: 'q' and two
// letters from a..j, distinct per query and never inside filler text.
func fanoutMarker(i int) string {
	return string([]byte{'q', byte('a' + i/10%10), byte('a' + i%10)})
}

// fanoutFormula extracts every occurrence of marker m.
func fanoutFormula(m string) string {
	return fmt.Sprintf(`.*(x{%s}).*|(x{%s}).*`, m, m)
}

// fanoutMarkers returns the markers of the standing queries. They do
// not depend on the seed: the fused automaton's cost depends on which
// literals it holds, and the seed should vary the documents only.
func fanoutMarkers() []string {
	out := make([]string, fanoutQueries)
	for i := range out {
		out[i] = fanoutMarker(i)
	}
	return out
}

// fanoutDoc returns exactly n bytes of filler prose with a marker token
// about every 32 words. Only the markers listed in present occur, so
// the other queries are excluded by their mandatory factor.
func fanoutDoc(r *rand.Rand, n int, present []string) string {
	var b strings.Builder
	b.Grow(n + 128)
	for b.Len() < n {
		for j, w := 0, 8+r.IntN(9); j < w; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			if r.IntN(32) == 0 {
				b.WriteString(present[r.IntN(len(present))])
			} else {
				b.WriteString(pick(r, fillerWords))
			}
		}
		b.WriteString(". ")
	}
	return b.String()[:n]
}

// sentimentFormula is library.NegativeSentiment: the word after "bad"
// within a sentence.
const sentimentFormula = `(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`

// sentenceFormula is library.Sentences, the disjoint and local sentence
// splitter.
const sentenceFormula = "(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|" +
	"[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*"

// serveMarker is the trigger word of serve plan k: "zq" and two letters,
// a word no other vocabulary holds.
func serveMarker(k int) string {
	return string([]byte{'z', 'q', byte('a' + k/26), byte('a' + k%26)})
}

// serveFormula is serve plan k's spanner: the word following its
// marker within a sentence — the sentiment spanner's shape, so every
// pair with the sentence splitter is self-splittable.
func serveFormula(k int) string {
	return `(.*[ .!?\n])?` + serveMarker(k) + ` (y{[a-z]+})(([^a-z].*)?|)`
}

// isBoundary reports the bytes after which a serve marker starts a
// word: the class [ .!?\n] of the formula's prefix.
func isBoundary(c byte) bool {
	return c == ' ' || c == '.' || c == '!' || c == '?' || c == '\n'
}

// countAfter is the serve workload's expected result: the number of
// tuples serveFormula yields on doc — one per occurrence of the marker
// at a word start followed by a space and a letter.
func countAfter(doc, marker string) int {
	n := 0
	pat := marker + " "
	for i := 0; ; {
		j := strings.Index(doc[i:], pat)
		if j < 0 {
			return n
		}
		at := i + j
		next := at + len(pat)
		if (at == 0 || isBoundary(doc[at-1])) && next < len(doc) && doc[next] >= 'a' && doc[next] <= 'z' {
			n++
		}
		i = at + 1
	}
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var acc float64
	for k := 0; k < n; k++ {
		acc += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = acc
	}
	for k := range z.cdf {
		z.cdf[k] /= acc
	}
	return z
}

func (z *zipf) sample(r *rand.Rand) int {
	u := r.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// serveDoc returns exactly n bytes of review text in which about one
// word in eight is a plan marker, drawn by the same Zipf law as the
// plans, so popular plans find matches.
func serveDoc(r *rand.Rand, z *zipf, n int) string {
	var b strings.Builder
	b.Grow(n + 128)
	for b.Len() < n {
		for j, w := 0, 4+r.IntN(8); j < w; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			if r.IntN(8) == 0 {
				b.WriteString(serveMarker(z.sample(r)))
			} else {
				b.WriteString(pick(r, reviewWords))
			}
		}
		b.WriteByte('.')
	}
	return b.String()[:n]
}

type reqKind uint8

const (
	kindJSON reqKind = iota
	kindRaw
	kindMultipart
	kindBatch
)

func (k reqKind) String() string {
	return [...]string{"json", "raw", "multipart", "batch"}[k]
}

// request is one scheduled serve request.
type request struct {
	at    time.Duration // send time, from the start of its phase
	kind  reqKind
	plans []int // serve plan ranks: one, or serveBatchQ for a batch
	size  int   // index into serveDocSizes
	doc   int   // document within its size class
}

// schedule returns n requests spread over d as a Poisson process
// conditioned on n arrivals (sorted uniform times). Size classes and
// body kinds are dealt in shuffled balanced blocks, so every seed sends
// the same byte volume and mix; plans are drawn by z.
func schedule(r *rand.Rand, z *zipf, n int, d time.Duration) []request {
	at := make([]float64, n)
	for i := range at {
		at[i] = r.Float64()
	}
	sort.Float64s(at)
	var sizes, kinds []int
	out := make([]request, n)
	for i := range out {
		if len(sizes) == 0 {
			sizes = r.Perm(len(serveDocSizes))
		}
		q := request{at: time.Duration(at[i] * float64(d)), size: sizes[0], doc: r.IntN(serveDocPool)}
		sizes = sizes[1:]
		if i%serveBatchOne == serveBatchOne-1 {
			q.kind = kindBatch
			for len(q.plans) < serveBatchQ {
				if k := z.sample(r); !containsInt(q.plans, k) {
					q.plans = append(q.plans, k)
				}
			}
		} else {
			if len(kinds) == 0 {
				kinds = r.Perm(3)
			}
			q.kind = reqKind(kinds[0])
			kinds = kinds[1:]
			q.plans = []int{z.sample(r)}
		}
		out[i] = q
	}
	return out
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
