package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// traceSpan is one timed call at a layer boundary, recorded by the
// benchmark's own code around a call into the program. Times are
// nanoseconds since the tracer's epoch.
type traceSpan struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`    // shared by every span of one operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s traceSpan) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call the same methods.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []traceSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock time to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, traceSpan{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []traceSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]traceSpan(nil), t.spans...)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Overlapping children are counted
// once (their union), and child time outside the parent is ignored.
func selfTimes(spans []traceSpan) []int64 {
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range kids[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// rootOf returns the root span id of every span.
func rootOf(spans []traceSpan) []int32 {
	root := make([]int32, len(spans))
	for i := range spans {
		r := int32(i)
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		root[i] = r
	}
	return root
}

// balance is the self-time identity of one family of trees (all roots
// with one name): the summed durations of the roots and the summed
// self times of every span in their trees. They are equal exactly when
// no two children of a span overlap and every child lies inside its
// parent — the condition under which self times add up to the
// end-to-end time of the root.
type balance struct {
	Roots, Spans   int
	RootNS, SelfNS int64
	Balance        bool
}

func balances(spans []traceSpan, self []int64) map[string]*balance {
	out := make(map[string]*balance)
	roots := rootOf(spans)
	get := func(name string) *balance {
		b := out[name]
		if b == nil {
			b = &balance{}
			out[name] = b
		}
		return b
	}
	for i, s := range spans {
		b := get(spans[roots[i]].Name)
		b.Spans++
		b.SelfNS += self[i]
		if s.Parent < 0 {
			b.Roots++
			b.RootNS += s.dur()
		}
	}
	for _, b := range out {
		b.Balance = b.RootNS == b.SelfNS
	}
	return out
}

// layerTime sums durations and self times by span name.
type layerTime struct {
	Count  int
	DurNS  int64
	SelfNS int64
}

func byName(spans []traceSpan, self []int64) map[string]*layerTime {
	out := make(map[string]*layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.DurNS += s.dur()
		lt.SelfNS += self[i]
	}
	return out
}

// meanSelfMS is the mean self time of the spans called name, in ms.
func meanSelfMS(lt map[string]*layerTime, name string) float64 {
	l := lt[name]
	if l == nil || l.Count == 0 {
		return 0
	}
	return float64(l.SelfNS) / float64(l.Count) / 1e6
}

// meanDurMS is the mean duration of the spans called name, in ms.
func meanDurMS(lt map[string]*layerTime, name string) float64 {
	l := lt[name]
	if l == nil || l.Count == 0 {
		return 0
	}
	return float64(l.DurNS) / float64(l.Count) / 1e6
}
