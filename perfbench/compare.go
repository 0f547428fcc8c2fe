package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The compare tool diffs two result sets — files of run records, as
// --record appends them — metric by metric and workload by workload,
// against the benchmark's own bounds. The i-th old run of a workload is
// paired with its i-th new run; `run.py ab` makes such pairs by
// running the two trees alternately, so that a drift of the machine's
// speed moves both runs of a pair alike.
//
//	improved    the new median is better by more than the old runs'
//	            spread, and the new run wins at least nine tenths of
//	            the pairs
//	worse       the new median is worse by more than the bound, and the
//	            new run loses at least nine tenths of the pairs
//	unresolved  the spread of either side exceeds the bound, so the
//	            bound cannot be resolved — unless every new run beats,
//	            or loses to, every old run; or the median is worse by
//	            more than the bound but the pairs do not settle it
//	unchanged   anything else
//
// Per-layer metrics have no bound; for them a difference inside the
// old runs' spread is unchanged and one outside it that the pairs do
// not settle is unresolved.

type verdict string

const (
	improved   verdict = "improved"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// judge classifies new against old for a metric whose better direction
// is "higher" or "lower". bound ≤ 0 means the metric has none.
func judge(old, new []float64, better string, bound float64) (verdict, float64) {
	oldMed, newMed := median(old), median(new)
	gain := 0.0 // relative change in the better direction
	if oldMed != 0 {
		gain = (newMed - oldMed) / abs(oldMed)
	} else if newMed != 0 {
		gain = 1
	}
	if better == "lower" {
		gain = -gain
	}
	isBetter := func(n, o float64) bool {
		if better == "lower" {
			return n < o
		}
		return n > o
	}
	// Ties count for neither side.
	wins, losses := 0, 0
	pairs := min(len(old), len(new))
	for i := 0; i < pairs; i++ {
		switch {
		case isBetter(new[i], old[i]):
			wins++
		case isBetter(old[i], new[i]):
			losses++
		}
	}
	mostlyWin := pairs > 0 && float64(wins) >= 0.9*float64(pairs)
	mostlyLose := pairs > 0 && float64(losses) >= 0.9*float64(pairs)
	allWin, allLose := len(old) > 0 && len(new) > 0, len(old) > 0 && len(new) > 0
	for _, o := range old {
		for _, n := range new {
			allWin = allWin && isBetter(n, o)
			allLose = allLose && isBetter(o, n)
		}
	}
	oldSpread, _ := spread(old)
	newSpread, _ := spread(new)

	if bound > 0 {
		switch {
		case max(oldSpread, newSpread) > bound && !allWin && !allLose:
			return unresolved, gain
		case gain < -bound && mostlyLose:
			return worse, gain
		case gain < -bound:
			return unresolved, gain
		case gain > oldSpread && mostlyWin:
			return improved, gain
		}
		return unchanged, gain
	}
	switch {
	case gain > oldSpread && mostlyWin:
		return improved, gain
	case -gain > oldSpread && mostlyLose:
		return worse, gain
	case abs(gain) <= oldSpread:
		return unchanged, gain
	}
	return unresolved, gain
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// readRecords loads a result set: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type cell struct{ workload, metric string }

func collect(recs []record) map[cell][]float64 {
	out := map[cell][]float64{}
	for _, r := range recs {
		for m, v := range r.Metrics {
			k := cell{r.Stamp.Workload, m}
			out[k] = append(out[k], v)
		}
	}
	return out
}

// compareMain runs `perfbench compare OLD NEW` and returns the exit
// status: 1 when any pair is worse.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	old, err := readRecords(args[0])
	if err == nil {
		var cur []record
		cur, err = readRecords(args[1])
		if err == nil {
			return compareSets(old, cur, w)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 2
}

func compareSets(old, cur []record, w io.Writer) int {
	a, b := collect(old), collect(cur)
	var cells []cell
	for k := range a {
		if _, ok := b[k]; ok {
			cells = append(cells, k)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].workload != cells[j].workload {
			return cells[i].workload < cells[j].workload
		}
		return cells[i].metric < cells[j].metric
	})
	status := 0
	fmt.Fprintf(w, "%-8s %-32s %12s %12s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "verdict")
	for _, k := range cells {
		better, bound := "", 0.0
		for _, m := range endToEnd {
			if m.Name == k.metric {
				better, bound = m.Better, m.Bound
			}
		}
		for _, m := range perLayer {
			if m.Name == k.metric {
				better = m.Better
			}
		}
		if better == "" {
			continue
		}
		v, gain := judge(a[k], b[k], better, bound)
		if v == worse {
			status = 1
		}
		fmt.Fprintf(w, "%-8s %-32s %12.5g %12.5g %+7.1f%%  %s (n=%d/%d)\n",
			k.workload, k.metric, median(a[k]), median(b[k]), 100*gain, v, len(a[k]), len(b[k]))
	}
	return status
}
