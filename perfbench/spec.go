package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// The benchmark's fixed parameters. They are part of its definition:
// changing one changes what every later result means, so each appears
// in BENCHMARK.json (the workload descriptions) and in every result's
// stamp.
const (
	runSeconds = 20

	// ingest: large dense review documents streamed through
	// ExtractReader on the proven-local split plan.
	ingestDocBytes = 512 << 10 // typical size; see docSizes
	ingestPool     = 8
	ingestSLO      = 200 * time.Millisecond

	// scan: whole-document Extract on a sequential plan, one document of
	// each regime per round. The typical sizes give each regime a similar
	// share of the wall time.
	scanDenseBytes  = 256 << 10
	scanSparseBytes = 1 << 20
	scanNonBytes    = 2 << 20
	scanSparseEvery = 64 << 10
	scanPool        = 8 // documents per regime
	scanSLO         = 50 * time.Millisecond

	// fanout: ExtractBatch with standing rare-literal queries.
	fanoutQueries  = 16
	fanoutDocBytes = 256 << 10 // typical size; see docSizes
	fanoutPool     = 32
	fanoutSLO      = 100 * time.Millisecond

	// serve: spand under open-loop Poisson load.
	serveRate     = 100.0 // requests per second: about 15% of spand's capacity on the reference machine
	serveSLO      = 50 * time.Millisecond
	serveConns    = 2
	servePlans    = 512 // distinct (spanner, sentence splitter) pairs
	serveCache    = 128 // spand's default plan cache
	serveZipfS    = 1.0
	serveBatchQ   = 3
	serveBatchOne = 8 // one request in this many is a batch
	serveWarmup   = 2 * time.Second
	serveDocPool  = 8 // documents per size class

	// minLatencySamples is the least operation count per run: the
	// nearest-rank p99 then has at least ten samples beyond it.
	minLatencySamples = 1000
)

var serveDocSizes = []int{1 << 10, 16 << 10, 128 << 10}

// docSizes is the size of each pool document of a library workload of
// typical size n: in every eight documents one of half the size, six of
// the typical size and one of four times it. The large documents give
// the latency distribution a tail of its own, so p99 measures them
// rather than whichever scheduling stalls of a shared machine a run
// happened to meet.
func docSizes(n, pool int) []int {
	pattern := []int{n / 2, n, n, n, n, n, n, 4 * n}
	out := make([]int, pool)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []layerMetric  `json:"per_layer"`
}

var workloads = []workloadSpec{
	{"ingest", fmt.Sprintf("closed loop, 1 client: dense reviews of %d KiB (1 in 8 half, 1 in 8 4x) streamed by ExtractReader on the proven-local sentiment x sentence plan; SLO %v/doc",
		ingestDocBytes>>10, ingestSLO)},
	{"scan", fmt.Sprintf("closed loop, 1 client: whole-doc Extract, sequential plan, on dense %d KiB, sparse %d KiB, non-matching %d KiB docs (1 in 8 half, 1 in 8 4x); SLO %v/doc",
		scanDenseBytes>>10, scanSparseBytes>>10, scanNonBytes>>10, scanSLO)},
	{"fanout", fmt.Sprintf("closed loop, 1 client: ExtractBatch of %d rare-literal queries over %d KiB docs (1 in 8 half, 1 in 8 4x) whose filler defeats byte skipping; SLO %v/doc",
		fanoutQueries, fanoutDocBytes>>10, fanoutSLO)},
	{"serve", fmt.Sprintf("spand, open loop Poisson %g req/s on %d conns; 1/16/128 KiB docs, JSON/raw/multipart, 1 in %d batch; Zipf over %d plans vs %d-plan cache; SLO 200 within %v",
		serveRate, serveConns, serveBatchOne, servePlans, serveCache, serveSLO)},
}

// The bounds follow the spread of ten runs on the reference machine, a
// shared two-vCPU virtual machine whose speed drifts by 10-20% over
// tens of seconds (see README.md): every timed metric gets the largest
// bound allowed, memory and the SLO share tighter ones.
var endToEnd = []e2eMetric{
	{"throughput_mb_s", "MB/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"slo_share", "share", "higher", 0.05},
	{"cpu_ms_per_mb", "ms/MB", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []layerMetric{
	{"spand.server_ms", "ms", "lower"},
	{"spand.wire_ms", "ms", "lower"},
	{"spand.decode_ms", "ms", "lower"},
	{"spand.encode_ms", "ms", "lower"},
	{"engine.plan_hit_ratio", "ratio", "higher"},
	{"engine.plan_ms", "ms", "lower"},
	{"engine.extract_ms", "ms", "lower"},
	{"engine.reader_overhead_share", "share", "lower"},
	{"regexformula.compile_ms", "ms", "lower"},
	{"core.verdicts_ms", "ms", "lower"},
	{"core.scan_mb_s", "MB/s", "higher"},
	{"core.segments_per_mb", "1/MB", "lower"},
	{"parallel.busy_share", "share", "higher"},
	{"parallel.chunks_per_mb", "1/MB", "lower"},
	{"parallel.steals_per_mb", "1/MB", "lower"},
	{"parallel.merge_share", "share", "lower"},
	{"parallel.self_ms_per_mb", "ms/MB", "lower"},
	{"vsa.segment_eval_ms_per_mb", "ms/MB", "lower"},
	{"vsa.eval_mb_s.dense", "MB/s", "higher"},
	{"vsa.eval_mb_s.sparse", "MB/s", "higher"},
	{"vsa.eval_mb_s.nonmatching", "MB/s", "higher"},
	{"vsa.prefilter_skip_ratio", "ratio", "higher"},
	{"vsa.window_byte_ratio", "ratio", "lower"},
	{"vsa.sim_share", "share", "lower"},
	{"vsa.multi_mb_s", "MB/s", "higher"},
	{"vsa.multi_admission_skip_ratio", "ratio", "higher"},
	{"vsa.multi_member_fallbacks", "1/doc", "lower"},
	{"runtime.alloc_bytes_per_byte", "B/B", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

func benchmarkSpec() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// renderSpec returns BENCHMARK.json's exact bytes.
func renderSpec() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchmarkSpec()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// unitOf returns the unit of a named metric.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}
