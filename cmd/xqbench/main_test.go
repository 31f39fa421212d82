package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkSetRuns executes every tier-1 benchmark body for exactly
// one iteration: the set must stay runnable (a benchmark that b.Fatals
// would make the CI gate vacuous) and must report sane metrics.
func TestBenchmarkSetRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every tier-1 benchmark once")
	}
	bt := flag.CommandLine.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := bt.Value.Set(old); err != nil {
			t.Fatal(err)
		}
	}()
	seen := map[string]bool{}
	for _, bm := range benchmarks(context.Background()) {
		if seen[bm.Name] {
			t.Fatalf("duplicate benchmark name %q", bm.Name)
		}
		seen[bm.Name] = true
		m, ok := measure(bm.Fn)
		if !ok {
			t.Fatalf("%s: never ran", bm.Name)
		}
		if m.NsPerOp <= 0 || m.AllocsPerOp < 0 {
			t.Fatalf("%s: nonsense metrics %+v", bm.Name, m)
		}
	}
	for _, want := range []string{"frame-sampler-shot", "frame-sampler-batch", "threshold-study"} {
		if !seen[want] {
			t.Fatalf("tier-1 set is missing %q", want)
		}
	}
}

func TestCheckBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", `{"a": {"ns_per_op": 100, "allocs_per_op": 0}, "b": {"ns_per_op": 50, "allocs_per_op": 1}}`)

	ok := map[string]Metrics{"a": {NsPerOp: 150}, "b": {NsPerOp: 60}, "new": {NsPerOp: 1}}
	if err := checkBaseline(base, ok, 2.0); err != nil {
		t.Errorf("within tolerance (new benchmark allowed): %v", err)
	}
	regressed := map[string]Metrics{"a": {NsPerOp: 201}, "b": {NsPerOp: 60}}
	if err := checkBaseline(base, regressed, 2.0); err == nil {
		t.Error("2.01x regression passed the 2x gate")
	}
	missing := map[string]Metrics{"a": {NsPerOp: 100}}
	if err := checkBaseline(base, missing, 2.0); err == nil {
		t.Error("dropped benchmark passed the gate")
	}
	if err := checkBaseline(filepath.Join(dir, "absent.json"), ok, 2.0); err == nil {
		t.Error("unreadable baseline passed")
	}
	garbled := write("bad.json", "{")
	if err := checkBaseline(garbled, ok, 2.0); err == nil {
		t.Error("invalid baseline JSON passed")
	}
}

// TestDenseDecodeRowsAllocationFree pins the two above-threshold decode
// rows at zero allocations per op, the same steady state the decoder's
// AllocsPerRun tests pin.
func TestDenseDecodeRowsAllocationFree(t *testing.T) {
	bt := flag.CommandLine.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("20x"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := bt.Value.Set(old); err != nil {
			t.Fatal(err)
		}
	}()
	rows := 0
	for _, bm := range benchmarks(context.Background()) {
		if bm.Name != "decode-patch-d9-dense" && bm.Name != "decode-uf-d9-dense" {
			continue
		}
		rows++
		m, ok := measure(bm.Fn)
		if !ok {
			t.Fatalf("%s: never ran", bm.Name)
		}
		if m.AllocsPerOp != 0 {
			t.Fatalf("%s: %.0f allocs/op, want 0", bm.Name, m.AllocsPerOp)
		}
	}
	if rows != 2 {
		t.Fatalf("found %d dense decode rows, want 2", rows)
	}
}
