package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantileRefusesThinTails(t *testing.T) {
	if err := checkQuantile(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimesOnNestedSpans(t *testing.T) {
	if err := checkSelfTimes(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayMatchesRunGridCell(t *testing.T) {
	if err := checkReplay(); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json is generated from spec.go (perfbench -spec); the two
// must not drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	generated, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, generated) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with perfbench -spec:\n%s", generated)
	}
}

// runOnce runs a workload at the shortest size and returns its output.
func runOnce(t *testing.T, name string, trace bool) string {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	dir := t.TempDir()
	cfg := runConfig{ctx: context.Background(), workload: name, seed: 7, seconds: 1, trace: trace, dir: dir, out: dir, epoch: time.Now()}
	rep := newReport()
	if err := w.run(cfg, rep); err != nil {
		t.Fatal(err)
	}
	declared := endToEnd
	if trace {
		declared = perLayer
	}
	var out bytes.Buffer
	if err := rep.print(&out, declared); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if rep.failed != 0 {
		t.Fatalf("%d of %d operations failed\n%s", rep.failed, rep.attempted, out.String())
	}
	return out.String()
}

func TestXQDMixedReportsEveryMetric(t *testing.T) {
	plain := runOnce(t, "xqd-mixed", false)
	traced := runOnce(t, "xqd-mixed", true)
	digest := func(out string) string {
		for _, ln := range strings.Split(out, "\n") {
			if strings.HasPrefix(ln, "digest grid-jsonl") {
				return ln
			}
		}
		t.Fatalf("no grid digest in\n%s", out)
		return ""
	}
	// The traced run computes cells by replaying them through the backend;
	// the grid it serves must be the same bytes.
	if digest(plain) != digest(traced) {
		t.Fatalf("traced grid digest %q, untraced %q", digest(traced), digest(plain))
	}
}

func TestThresholdHighReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs d=9 cells for ~20 s")
	}
	runOnce(t, "threshold-high", false)
	runOnce(t, "threshold-high", true)
}
