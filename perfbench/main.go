// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks every output, and prints its
// metrics by name and unit; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with --trace 1 they are the per-layer metrics, from a
// run that records a span around every call into a layer. run.py builds
// the harness and spand from the checkout and runs it:
//
//	python3 perfbench/run.py --workload ingest --seed 1 --seconds 12 --trace 0
//	python3 perfbench/run.py --workload all --seed 1     # every workload
//	python3 perfbench/run.py --write-spec                # regenerate BENCHMARK.json
//	python3 perfbench/run.py compare old.jsonl new.jsonl # diff two result sets
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spand    string // spand binary, for serve
	commit   string
	tree     string
	spansDir string
	record   string
}

// runResult is one workload run before it is printed.
type runResult struct {
	metrics     map[string]float64
	attempted   int
	failed      int
	firstErr    error
	samples     int // latency samples behind the percentiles
	withinSLO   int
	latenessP99 float64
	params      map[string]any
	spans       *tracer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as the compare tool reads it.
type record struct {
	Stamp       stamp              `json:"stamp"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Samples     int                `json:"samples"`
	StealShare  float64            `json:"steal_share"`
	Metrics     map[string]float64 `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	var seconds float64
	var trace int
	var writeSpec string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", runSeconds, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&o.spand, "spand", "", "spand binary built from the tree under test")
	flag.StringVar(&o.commit, "commit", "none", "git commit of the tree under test")
	flag.StringVar(&o.tree, "tree", "unknown", "hash of the source tree under test")
	flag.StringVar(&o.spansDir, "spans-dir", "", "directory traced runs write their spans to")
	flag.StringVar(&o.record, "record", "", "file to append each run's record to, for compare")
	flag.StringVar(&writeSpec, "write-spec", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()

	if writeSpec != "" {
		b, err := renderSpec()
		if err == nil {
			err = os.WriteFile(writeSpec, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() > 0 || seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	for _, name := range names {
		if !isWorkload(name) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
	}
	// With several workloads the last line sums them, metrics keyed
	// workload/metric.
	sum := output{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		o.workload = name
		out := runOne(o)
		if len(names) == 1 {
			sum = out
			break
		}
		sum.Correct = sum.Correct && out.Correct
		sum.Attempted += out.Attempted
		sum.Failed += out.Failed
		for k, v := range out.Metrics {
			sum.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

func isWorkload(name string) bool {
	for _, n := range workloadNames() {
		if n == name {
			return true
		}
	}
	return false
}

// runOne runs one workload, prints its report and returns its output
// line.
func runOne(o options) output {
	fmt.Printf("== perfbench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds.Seconds(), o.trace)
	steal0, total0 := cpuTicks()
	var res runResult
	var err error
	switch o.workload {
	case "serve":
		if o.spand == "" {
			err = fmt.Errorf("serve needs --spand")
			break
		}
		res, err = runServe(o)
	default:
		var w libWorkload
		switch o.workload {
		case "ingest":
			w, err = newIngest(o.seed)
		case "scan":
			w, err = newScan(o.seed)
		case "fanout":
			w, err = newFanout(o.seed)
		}
		if err == nil {
			res, err = runLibrary(w, o)
			res.params = w.params()
		}
	}
	if res.metrics == nil {
		res.metrics = map[string]float64{}
	}
	correct := err == nil && res.failed == 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", o.workload, err)
		res.attempted, res.failed = max(res.attempted, 1), max(res.failed, 1)
	} else if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %d of %d operations failed; first: %v\n", o.workload, res.failed, res.attempted, res.firstErr)
	}

	st := newStamp(o.workload, o.seed, o.commit, o.tree, res.params)
	sb, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", sb)

	if res.spans != nil {
		if !reportBalance(res.spans) {
			correct = false
		}
		if o.spansDir != "" {
			path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
			err := os.MkdirAll(o.spansDir, 0o755)
			if err == nil {
				err = res.spans.write(path)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}
	}

	wanted := make([]string, 0)
	if o.trace {
		for _, m := range perLayer {
			wanted = append(wanted, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			wanted = append(wanted, m.Name)
		}
	}
	out := output{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, name := range wanted {
		v := res.metrics[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench %s: metric %s is not finite\n", o.workload, name)
			v, out.Correct = 0, false
		}
		out.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
		fmt.Printf("  %-32s %14.6g %s\n", name, v, unitOf(name))
	}
	failedShare := ratio(float64(res.failed), float64(res.attempted))
	fmt.Printf("  operations: %d attempted, %d failed (failed_share %g)\n", res.attempted, res.failed, failedShare)
	steal1, total1 := cpuTicks()
	stealShare := ratio(float64(steal1-steal0), float64(total1-total0))
	fmt.Printf("  CPU time stolen by the host during the run: %.2f%%\n", 100*stealShare)
	if !o.trace {
		fmt.Printf("  latency samples: %d; p99 rests on %d slower samples; %d within the SLO\n",
			res.samples, beyond(res.samples, 0.99), res.withinSLO)
		if o.workload == "serve" {
			fmt.Printf("  generator lateness p99: %.3f ms\n", res.latenessP99)
		}
	}

	if o.record != "" {
		rec := record{Stamp: st, Trace: o.trace, Seconds: o.seconds.Seconds(), Correct: out.Correct,
			Attempted: out.Attempted, Failed: out.Failed, FailedShare: failedShare, Samples: res.samples, StealShare: stealShare,
			Metrics: map[string]float64{}}
		for name, mv := range out.Metrics {
			rec.Metrics[name] = mv.Value
		}
		if err := appendRecord(o.record, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	return out
}

// reportBalance prints the self-time identity of each trace family and
// reports whether every family balances.
func reportBalance(t *tracer) bool {
	spans := t.snapshot()
	bal := balances(spans, selfTimes(spans))
	names := make([]string, 0, len(bal))
	for n := range bal {
		names = append(names, n)
	}
	sort.Strings(names)
	ok := true
	for _, n := range names {
		b := bal[n]
		fmt.Printf("  trace %-16s %6d roots %7d spans: root %.3f ms = self sum %.3f ms: %v\n",
			n, b.Roots, b.Spans, float64(b.RootNS)/1e6, float64(b.SelfNS)/1e6, b.Balance)
		ok = ok && b.Balance
	}
	return ok
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
