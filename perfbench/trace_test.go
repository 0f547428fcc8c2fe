package main

import (
	"testing"
	"time"
)

func sp(id, parent int32, name string, start, end int64) traceSpan {
	return traceSpan{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []traceSpan{
		sp(0, -1, "root", 0, 100),
		sp(1, 0, "a", 10, 30),
		sp(2, 0, "b", 20, 50),   // overlaps a: the union is counted once
		sp(3, 0, "c", 90, 120),  // runs past its parent: only 90..100 counts
		sp(4, 1, "a.x", 12, 18), // grandchild: charged to a, not to root
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// With sequential, nested children the self times of a tree add up to
// its root's duration; overlapping children break the identity, and
// balances reports it.
func TestBalanceIdentity(t *testing.T) {
	seq := []traceSpan{
		sp(0, -1, "op", 0, 100),
		sp(1, 0, "engine.plan", 5, 10),
		sp(2, 0, "engine.extract", 10, 90),
		sp(3, -1, "op", 200, 250),
		sp(4, 3, "engine.plan", 200, 201),
		sp(5, 3, "engine.extract", 201, 249),
	}
	b := balances(seq, selfTimes(seq))["op"]
	if b == nil || !b.Balance || b.Roots != 2 || b.RootNS != 150 || b.SelfNS != 150 || b.Spans != 6 {
		t.Errorf("sequential trace: %+v, want 2 balanced roots of 150 ns in 6 spans", b)
	}

	par := []traceSpan{
		sp(0, -1, "op", 0, 100),
		sp(1, 0, "left", 0, 60),
		sp(2, 0, "right", 40, 100),
	}
	if b := balances(par, selfTimes(par))["op"]; b.Balance {
		t.Errorf("overlapping children reported balanced: %+v", b)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 7)
	child := tr.begin("engine.extract", root, 7)
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[1].Parent != root || spans[1].Req != 7 || spans[1].dur() < int64(time.Millisecond) {
		t.Errorf("child span %+v", spans[1])
	}
	if spans[0].Start > spans[1].Start || spans[0].End < spans[1].End {
		t.Errorf("child %+v not inside root %+v", spans[1], spans[0])
	}

	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	nilTracer.end(0)
	if nilTracer.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestByName(t *testing.T) {
	spans := []traceSpan{
		sp(0, -1, "op", 0, 10),
		sp(1, 0, "engine.extract", 2, 8),
		sp(2, -1, "op", 20, 40),
		sp(3, 2, "engine.extract", 20, 30),
	}
	lt := byName(spans, selfTimes(spans))
	if got := meanSelfMS(lt, "engine.extract"); got != 8.0/1e6 {
		t.Errorf("mean self of engine.extract = %g ms, want %g", got, 8.0/1e6)
	}
	if got := meanDurMS(lt, "op"); got != 15.0/1e6 {
		t.Errorf("mean duration of op = %g ms, want %g", got, 15.0/1e6)
	}
	if got := meanSelfMS(lt, "missing"); got != 0 {
		t.Errorf("mean self of a missing name = %g, want 0", got)
	}
}
