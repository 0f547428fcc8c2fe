package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name   string
		new    []float64
		better string
		bound  float64
		want   verdict
	}{
		{"same", scale(base, 1), "higher", 0.1, unchanged},
		{"slower beyond bound", scale(base, 0.8), "higher", 0.1, worse},
		{"slower within bound", scale(base, 0.95), "higher", 0.1, unchanged},
		{"faster beyond spread", scale(base, 1.2), "higher", 0.1, improved},
		{"lower is better", scale(base, 0.8), "lower", 0.1, improved},
		{"noisy", []float64{60, 140, 70, 130, 80, 120, 100, 90, 110, 100}, "higher", 0.1, unresolved},
		{"noisy but every run better", []float64{130, 190, 135, 180, 140, 170, 150, 145, 160, 155}, "higher", 0.1, improved},
		{"slower in 8 of 10 pairs", []float64{70, 70.7, 69.3, 70, 71.4, 68.6, 70, 70.7, 100, 101}, "higher", 0.2, unresolved},
		{"per-layer within spread", scale(base, 1.005), "higher", 0, unchanged},
		{"per-layer worse", scale(base, 0.7), "higher", 0, worse},
	}
	for _, c := range cases {
		if got, _ := judge(base, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	rec := func(workload string, tput float64) record {
		return record{Stamp: stamp{Workload: workload}, Metrics: map[string]float64{"throughput_mb_s": tput}}
	}
	var old, cur []record
	for i := 0; i < 5; i++ {
		old = append(old, rec("scan", 100+float64(i)), rec("ingest", 50+float64(i)/10))
		cur = append(cur, rec("scan", 100+float64(i)), rec("ingest", 30+float64(i)/10))
	}
	var out bytes.Buffer
	if status := compareSets(old, cur, &out); status != 1 {
		t.Errorf("status %d, want 1 for a worse pair", status)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[1], "ingest") || !strings.HasSuffix(strings.Fields(lines[1])[5], "worse") {
		t.Errorf("report:\n%s", out.String())
	}
	if !strings.Contains(lines[2], "unchanged") {
		t.Errorf("scan row: %s", lines[2])
	}
}
