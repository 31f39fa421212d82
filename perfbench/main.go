// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in a fresh process, measures it from outside through
// the library's public functions, checks the simulated outputs, and
// prints every metric with its unit and sample count followed by one
// JSON result line:
//
//	bash perfbench/run.sh --workload threshold-high --seed 1 --seconds 30 --trace 0
//
// --trace 1 runs the workload's traced variant instead: spans recorded
// around each call into a layer give the per-layer breakdown (written to
// <out>/trace/<workload>-<seed>.tsv). --workload all runs every workload,
// each in its own child process. --spec prints BENCHMARK.json.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"xqsim/internal/xrand"
)

// runConfig is what a workload run needs from the command line.
type runConfig struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch directory of this run, removed at exit
	out      string
	epoch    time.Time
}

// derive returns the positive seed of stream k of this run: every grid
// spec, job spec and pass seed comes from --seed through it.
func (c runConfig) derive(k uint64) int64 { return 1 + xrand.Mix(c.seed, k)&(1<<40-1) }

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: threshold-high, paper, xqd-mixed, or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", runSeconds, "measuring time the workload's fixed work is sized for")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		out      = flag.String("out", ".bench_build", "directory for scratch data and trace files")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		b, err := benchmarkJSON()
		if err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		_, _ = os.Stdout.Write(b)
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, *out)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		_, _ = fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(dir) }()

	cfg := runConfig{
		ctx: context.Background(), workload: w.name, seed: *seed, seconds: *seconds,
		trace: *trace == 1, dir: dir, out: *out, epoch: time.Now(),
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), procs)
	rep := newReport()
	selfCheck(rep)
	if err := w.run(cfg, rep); err != nil {
		_, _ = fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	if err := rep.print(os.Stdout, declared); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runAll runs each workload in its own child process, so no workload
// warms another (MeasureRates memoizes per process; server.New installs
// a process-wide rate-persistence hook), and folds their result lines
// into one, with metrics named <workload>/<metric>.
func runAll(seed int64, seconds, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	type result struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	all := result{Correct: true, Metrics: map[string]json.RawMessage{}}
	for _, w := range workloads {
		var stdout bytes.Buffer
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		_, _ = os.Stdout.Write(stdout.Bytes())
		if runErr != nil {
			_, _ = fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, runErr)
			return 1
		}
		var last string
		sc := bufio.NewScanner(&stdout)
		for sc.Scan() {
			if t := strings.TrimSpace(sc.Text()); t != "" {
				last = t
			}
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			_, _ = fmt.Fprintf(os.Stderr, "perfbench: %s: bad result line: %v\n", w.name, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	raw, err := json.Marshal(all)
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}

// setups times a workload's set-up. It is repeated in two batches, one
// before the timed loop and one after it: one set-up lasts well under a
// millisecond, and this host's speed drifts by up to 2x over seconds, so
// repetitions taken back to back sample a single moment of that drift.
// Nothing runs between the timed units, so the loop's heap behaves as it
// does in an xqsweep run.
type setups struct {
	what string
	fn   func() error
	ds   []float64
}

func (s *setups) run(n int) error {
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("set-up %s: %w", s.what, err)
		}
		s.ds = append(s.ds, time.Since(t).Seconds())
	}
	return nil
}

// report records setup_s, the median set-up.
func (s *setups) report(rep *report) error {
	v, err := quantile(s.ds, 0.5)
	if err != nil {
		return err
	}
	rep.metric("setup_s", v, "s", len(s.ds), "median of "+s.what)
	return nil
}

// setupBatch is how many set-ups a run times in each of its two batches, and
// minUnits the fewest units a timed loop runs: a median needs ten
// samples beyond it.
const (
	setupBatch = 21
	minUnits   = 2 * minBeyond
)

// finishE2E adds the whole-run metrics of an untraced run, and the
// median of the resident sets sampled at the ends of its units.
//
// mem_rss_p50_mb, not the peak, is the declared memory metric: the peak
// is set by where the collector happened to put its heap goal. Over ten
// seeds of paper the peak fell near 37 MB or near 46 MB and spread 0.23
// (IQR over median), against 0.12 for the median over units.
func finishE2E(rep *report, wall time.Duration, units int, unit string, rss *rssSamples) error {
	if rss.err != nil {
		return rss.err
	}
	rep.metric("wall_s", wall.Seconds(), "s", 1, fmt.Sprintf("whole timed loop: %d %s after one warm-up", units, unit))
	rep.pct("mem_rss_p50_mb", rss.mbs, 0.5, 1, "MB")
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.metric("mem_peak_mb", mb, "MB", 1, "VmHWM of this process")
	return nil
}
