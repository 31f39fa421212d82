package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// line is one printed metric.
type line struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report collects a run's metrics, output checks and digests.
type report struct {
	mu                sync.Mutex // guards attempted and failed: client goroutines count operations
	attempted, failed int
	lines             []line
	values            map[string]line
	digests           []string
}

func newReport() *report { return &report{values: map[string]line{}} }

func (r *report) add(l line) {
	r.lines = append(r.lines, l)
	r.values[l.name] = l
}

// metric records a value measured over n samples.
func (r *report) metric(name string, v float64, unit string, n int, note string) {
	r.add(line{name: name, value: v, unit: unit, n: n, note: note})
}

// pct records the q-quantile of xs, multiplied by scale. A quantile the
// samples cannot support is printed as refused and not recorded.
func (r *report) pct(name string, xs []float64, q, scale float64, unit string) {
	v, err := quantile(xs, q)
	if err != nil {
		r.lines = append(r.lines, line{name: name, unit: unit, n: len(xs), note: "refused: " + err.Error()})
		return
	}
	r.metric(name, v*scale, unit, len(xs), "p"+strconv.FormatFloat(100*q, 'g', -1, 64))
}

// op counts one attempted operation and whether it failed.
func (r *report) op(err error, what string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		_, _ = fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
	}
}

// check counts one output check.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil, "")
		return
	}
	r.op(fmt.Errorf("check failed"), fmt.Sprintf(format, args...))
}

// digest records the SHA-256 of a simulated output, so a later change
// that claims to leave outputs alone can show they stayed identical.
func (r *report) digest(what string, b []byte) {
	r.digests = append(r.digests, fmt.Sprintf("digest %s sha256=%x bytes=%d", what, sha256.Sum256(b), len(b)))
}

// print writes every metric with its unit and sample count, the digests,
// and last the result line holding the declared metrics. It fails when a
// declared metric is missing.
func (r *report) print(w io.Writer, declared []metricDef) error {
	bw := bufio.NewWriter(w)
	pct := 0.0
	if r.attempted > 0 {
		pct = 100 * float64(r.failed) / float64(r.attempted)
	}
	r.metric("failed_ops_pct", pct, "%", r.attempted, fmt.Sprintf("%d of %d operations failed", r.failed, r.attempted))
	for _, l := range r.lines {
		if mv := layerMoves(l.name); mv != "" {
			l.note += "; moves " + mv
		}
		if strings.HasPrefix(l.note, "refused") {
			_, _ = fmt.Fprintf(bw, "metric %-32s %16s %-6s n=%d %s\n", l.name, "-", l.unit, l.n, l.note)
			continue
		}
		_, _ = fmt.Fprintf(bw, "metric %-32s %16.6g %-6s n=%d %s\n", l.name, l.value, l.unit, l.n, l.note)
	}
	for _, d := range r.digests {
		_, _ = fmt.Fprintln(bw, d)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range declared {
		l, ok := r.values[m.name]
		if !ok {
			_ = bw.Flush()
			return fmt.Errorf("declared metric %s was not measured", m.name)
		}
		metrics[m.name] = value{l.value, m.unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintln(bw, string(raw))
	return bw.Flush()
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) { return statusMB("VmHWM") }

// rssSamples collects the process's resident set (VmRSS) at the ends of
// units, keeping the first error.
type rssSamples struct {
	mbs []float64
	err error
}

func (r *rssSamples) sample() {
	mb, err := statusMB("VmRSS")
	r.mbs = append(r.mbs, mb)
	if r.err == nil {
		r.err = err
	}
}

// statusMB reads one of /proc/self/status's kB fields, in MB.
func statusMB(field string) (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("%s: %w", field, err)
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(ln); len(f) == 3 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}
