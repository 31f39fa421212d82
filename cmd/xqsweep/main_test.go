package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestProfilesWrittenInGridMode runs the real binary in -grid mode with
// both profile flags, once successfully and once on an error exit, and
// checks that each run leaves non-empty CPU and heap profiles behind.
func TestProfilesWrittenInGridMode(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "xqsweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name     string
		args     []string
		wantExit int
	}{
		{"ok", []string{"-grid", "threshold", "-d", "3", "-p", "0.01", "-trials", "8", "-jsonl", filepath.Join(dir, "grid.jsonl")}, 0},
		{"error", []string{"-grid", "threshold", "-d", "4", "-p", "0.01"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu := filepath.Join(dir, tc.name+"-cpu.pprof")
			mem := filepath.Join(dir, tc.name+"-mem.pprof")
			cmd := exec.Command(bin, append(tc.args, "-cpuprofile", cpu, "-memprofile", mem)...)
			out, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != tc.wantExit {
				t.Fatalf("exit %d (%v), want %d\n%s", code, err, tc.wantExit, out)
			}
			for _, p := range []string{cpu, mem} {
				fi, err := os.Stat(p)
				if err != nil {
					t.Fatalf("profile not written: %v\n%s", err, out)
				}
				if fi.Size() == 0 {
					t.Fatalf("profile %s is empty", p)
				}
			}
		})
	}
}
