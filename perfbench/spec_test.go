package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from this package's definition (run.py
// --write-spec); the committed file must not drift from it.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want) {
		t.Error("BENCHMARK.json differs from the benchmark's definition; regenerate it with run.py --write-spec")
	}
}

func TestSpecLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	s := benchmarkSpec()
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range s.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	maxBound := 0.0
	for _, m := range s.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		maxBound = max(maxBound, m.Bound)
	}
	setup := false
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in s, lower better, with the largest bound")
	}
	for _, m := range s.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if b, _ := renderSpec(); len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(b))
	}
}
