package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// runSeconds is how long one run measures at this commit's speed. Each
// workload sizes its fixed amount of work from --seconds, so a run of the
// same seed and seconds always does the same work and wall_s compares
// across commits.
const runSeconds = 40

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	run  func(cfg runConfig, rep *report) error
}

// metricDef declares one metric of BENCHMARK.json. bound applies to
// end-to-end metrics only; moves records, for a per-layer metric, which
// end-to-end metric it should move and on which workload.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

var workloads = []workloadDef{
	{"threshold-high", "d=9 threshold-grid cells at p=2-3.08% (16 trials, 4 cells per second of --seconds) via sweep.RunGridCell: decode-bound, the regime that dominated the 100-cell grid", runThreshold},
	{"paper", "paper passes via sweep.RunExperiment: the xqsweep -all set plus threshold and circuit-threshold, Table 3 at 2048 shots, a new seed per pass: pipeline, frame sampler, small clusters", runPaper},
	{"xqd-mixed", "in-process xqd on loopback, closed loop: a worker leasing 64 d=3 p=0.1% cells and a client running 40 default simulate/estimate jobs (half duplicates) per second of --seconds", runXQD},
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "unit_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "mem_rss_p50_mb", unit: "MB", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "decoder.window_ms", unit: "ms", better: "lower", moves: "unit_p50_ms and wall_s on threshold-high; paper by the threshold study's share"},
	{name: "decoder.window_p50_us", unit: "us", better: "lower", moves: "unit_p50_ms on threshold-high"},
	{name: "decoder.window_p99_us", unit: "us", better: "lower", moves: "unit_p50_ms on threshold-high"},
	{name: "decoder.share_pct", unit: "%", better: "lower", moves: "bounds what a decoder gain can save on each workload"},
	{name: "decoder.windows", unit: "count", better: "higher", moves: "none: decode windows traced"},
	{name: "decoder.syndromes_per_window", unit: "count", better: "lower", moves: "none: identical unless the noise model changes"},
	{name: "decoder.matches_per_window", unit: "count", better: "lower", moves: "none: identical unless the matcher changes"},
	{name: "decoder.cycles_per_window", unit: "cycles", better: "lower", moves: "none: simulated EDU cycles (DecodeWindowCycles)"},
	{name: "microarch.reset_ms", unit: "ms", better: "lower", moves: "unit_p50_ms on paper (small on threshold-high)"},
	{name: "microarch.noise_ms", unit: "ms", better: "lower", moves: "unit_p50_ms on paper (small on threshold-high)"},
	{name: "microarch.syndrome_ms", unit: "ms", better: "lower", moves: "unit_p50_ms on paper (small on threshold-high)"},
	{name: "microarch.readout_ms", unit: "ms", better: "lower", moves: "unit_p50_ms on paper (small on threshold-high)"},
	{name: "unattributed_pct", unit: "%", better: "lower", moves: "none: accounting"},
	{name: "trace_overhead_pct", unit: "%", better: "lower", moves: "none: accounting"},
}

// printedLayers are per-layer metrics a workload's traced run prints
// beside the declared ones. They are left out of BENCHMARK.json because
// every declared metric must be reported by every workload, and these
// exist on one workload only.
var printedLayers = []metricDef{
	{name: "sweep.cell_ms", moves: "none: overhead check of RunGridCell against the replay (threshold-high)"},
	{name: "core.error_rate_ms", moves: "none: overhead check of MemoryExperiment.ErrorRate (threshold-high)"},
	{name: "compiler.reference_ms", moves: "unit_p50_ms on paper"},
	{name: "core.shot_runner_ms", moves: "unit_p50_ms and setup_s on paper"},
	{name: "microarch.shot_p50_us", moves: "unit_p50_ms on paper"},
	{name: "microarch.shot_p99_us", moves: "unit_p50_ms on paper"},
	{name: "microarch.shots", moves: "none: shots replayed (paper)"},
	{name: "core.measure_rates_ms", moves: "unit_p50_ms on paper"},
	{name: "server.http.lease_p50_ms", moves: "unit_p50_ms (lease round trip) on xqd-mixed"},
	{name: "server.http.lease_p99_ms", moves: "lease_rtt_p90_ms on xqd-mixed"},
	{name: "server.http.complete_p50_ms", moves: "unit_p50_ms (lease round trip) on xqd-mixed"},
	{name: "server.http.complete_p99_ms", moves: "lease_rtt_p90_ms on xqd-mixed"},
	{name: "server.grid.lease_p50_ms", moves: "unit_p50_ms and wall_s on xqd-mixed"},
	{name: "server.grid.complete_p50_ms", moves: "unit_p50_ms and wall_s on xqd-mixed"},
	{name: "store.put_p50_ms", moves: "unit_p50_ms and job latency on xqd-mixed"},
	{name: "store.put_p99_ms", moves: "lease_rtt_p90_ms and job_p90_ms on xqd-mixed"},
	{name: "store.get_p50_us", moves: "unit_p50_ms and job latency on xqd-mixed"},
	{name: "store.log_bytes_per_cell", moves: "none: durable bytes per grid cell (xqd-mixed)"},
	{name: "server.http.submit_p50_ms", moves: "job_p50_ms on xqd-mixed"},
	{name: "server.http.result_p50_ms", moves: "job_p50_ms on xqd-mixed"},
	{name: "server.polls_per_job", moves: "job_p50_ms and job_p90_ms on xqd-mixed"},
	{name: "server.cache_hits", moves: "job_p50_ms on xqd-mixed"},
	{name: "server.shed", moves: "failed_ops_pct on xqd-mixed"},
	{name: "sweep.worker_cell_p50_ms", moves: "wall_s on xqd-mixed"},
}

// layerMoves returns the end-to-end metric a per-layer metric should
// move, or "".
func layerMoves(name string) string {
	for _, defs := range [][]metricDef{perLayer, printedLayers} {
		for _, m := range defs {
			if m.name == name {
				return m.moves
			}
		}
	}
	if strings.HasPrefix(name, "sweep.") && strings.HasSuffix(name, "_ms") {
		return "unit_p50_ms on paper"
	}
	return ""
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// benchmarkJSON renders BENCHMARK.json from the tables above, one entry
// per line.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b bytes.Buffer
	list := func(key string, items []any, last bool) error {
		fmt.Fprintf(&b, "  %q: [\n", key)
		for i, it := range items {
			raw, err := json.Marshal(it)
			if err != nil {
				return err
			}
			sep := ","
			if i == len(items)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "    %s%s\n", raw, sep)
		}
		if last {
			b.WriteString("  ]\n")
		} else {
			b.WriteString("  ],\n")
		}
		return nil
	}
	b.WriteString("{\n")
	b.WriteString(`  "command": ["bash", "perfbench/run.sh"],` + "\n")
	b.WriteString(`  "paths": ["perfbench"],` + "\n")
	fmt.Fprintf(&b, "  \"run_seconds\": %d,\n", runSeconds)
	var ws, es, ls []any
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		es = append(es, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		ls = append(ls, layer{m.name, m.unit, m.better})
	}
	if err := list("workloads", ws, false); err != nil {
		return nil, err
	}
	if err := list("end_to_end", es, false); err != nil {
		return nil, err
	}
	if err := list("per_layer", ls, true); err != nil {
		return nil, err
	}
	b.WriteString("}\n")
	return b.Bytes(), nil
}
