package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xqsim/internal/core"
	"xqsim/internal/faults"
	"xqsim/internal/sweep"
)

// The threshold-high grid: d=9 cells cycling through three error rates
// in the 2-3.08% band, where decode dominates. Each cell is small enough
// that a run holds a hundred of them, so the median cell moves little
// from run to run while any single cell's time varies by 2x.
var thresholdPs = []float64{0.02, 0.026, 0.0308}

const (
	thresholdD      = 9
	thresholdTrials = 16
	cellsPerSecond  = 4
	// minTracedWindows lets decoder.window_p99_us have ten windows
	// beyond it.
	minTracedWindows = 1000
)

// tracedCells is how many cells a traced run traces: a third of the
// untraced run's cells, because a traced cell also runs its replays, and
// at least minTracedWindows windows' worth, rounded up to whole cycles
// of thresholdPs so every p is traced equally often.
func tracedCells(seconds int) int {
	n := max(cellsPerSecond*seconds/3, (minTracedWindows+thresholdTrials*3-1)/(thresholdTrials*3))
	k := len(thresholdPs)
	return (n + k - 1) / k * k
}

// thresholdGrid is the run's grid. A short traced run may trace more
// cells than the untraced run's quota; cell i is the same cell in either
// grid, because its seed depends only on (seed, i).
func thresholdGrid(cfg runConfig) (sweep.GridSpec, error) {
	n := max(minUnits, cellsPerSecond*cfg.seconds)
	if cfg.trace {
		n = max(n, tracedCells(cfg.seconds))
	}
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = thresholdPs[i%len(thresholdPs)]
	}
	return sweep.GridSpec{
		Kind: sweep.GridThreshold, Ds: []int{thresholdD}, Ps: ps,
		Trials: thresholdTrials, Seed: cfg.derive(1),
	}.Normalize()
}

func runThreshold(cfg runConfig, rep *report) error {
	g, err := thresholdGrid(cfg)
	if err != nil {
		return err
	}
	su := &setups{what: "core.NewMemoryRunner x GOMAXPROCS (d=9)", fn: func() error {
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			core.NewMemoryRunner(thresholdD, g.Ps[0], faults.Config{})
		}
		return nil
	}}
	if err := su.run(setupBatch); err != nil {
		return err
	}
	fmt.Printf("grid: %d cells, d=%d, p cycling %v, %d trials, seed %d\n", g.NumCells(), thresholdD, thresholdPs, g.Trials, g.Seed)
	if cfg.trace {
		err := traceThreshold(cfg, rep, g)
		return errors.Join(err, su.run(setupBatch), su.report(rep))
	}

	if _, _, err := sweep.RunGridCell(cfg.ctx, g, g.Cell(0), nil); err != nil {
		return fmt.Errorf("warm-up cell: %w", err)
	}
	cells := make([]sweep.CellResult, 0, g.NumCells())
	lat := make([]float64, 0, g.NumCells())
	var rss rssSamples
	start := time.Now()
	for i := 0; i < g.NumCells(); i++ {
		t := time.Now()
		res, _, err := sweep.RunGridCell(cfg.ctx, g, g.Cell(i), nil)
		lat = append(lat, ms(time.Since(t)))
		rss.sample()
		rep.op(err, fmt.Sprintf("cell %d", i))
		if err != nil {
			continue
		}
		rep.op(g.ValidateCell(res), fmt.Sprintf("cell %d validation", i))
		cells = append(cells, res)
	}
	wall := time.Since(start)

	if err := errors.Join(su.run(setupBatch), su.report(rep)); err != nil {
		return err
	}
	rep.pct("unit_p50_ms", lat, 0.5, 1, "ms")
	rep.pct("cell_p90_ms", lat, 0.9, 1, "ms")
	if err := finishE2E(rep, wall, len(lat), "cells", &rss); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sweep.WriteGridJSONL(&buf, g, cells); err != nil {
		return err
	}
	rep.digest("grid-jsonl", buf.Bytes())
	return nil
}

// traceThreshold traces the grid's first tracedCells cells, a fixed
// number, so the traced counts depend only on the seed and --seconds.
// Each cell runs through sweep.RunGridCell and is then replayed through
// microarch.Backend with a span per call; the replay must reproduce the
// cell's failure count exactly. Every fourth cell also runs
// core.MemoryExperiment.ErrorRate (the call RunGridCell wraps) and,
// outside the accounted spans, an untraced replay whose time against the
// traced one gives trace_overhead_pct; the untraced replay goes first on
// every other such cell.
func traceThreshold(cfg runConfig, rep *report, g sweep.GridSpec) error {
	l := newLane(0, cfg.epoch)
	rp := newReplayer(thresholdD, g.Ps[0])
	var tracedNs, plainNs int64
	byP := map[float64]*[2]int64{} // p -> decode ns, replay ns
	units := 0
	for i := 0; i < tracedCells(cfg.seconds); i++ {
		cell := g.Cell(i)
		paired := i%4 == 3
		l.unit = i
		root := l.begin("harness.cell")
		s := l.begin("sweep.cell")
		res, _, err := sweep.RunGridCell(cfg.ctx, g, cell, nil)
		l.end(s)
		rep.op(err, fmt.Sprintf("cell %d", i))
		if err == nil {
			rep.op(g.ValidateCell(res), fmt.Sprintf("cell %d validation", i))
		}
		if paired {
			s = l.begin("core.error_rate")
			r, _, err := core.NewMemoryExperiment(cell.D).ErrorRate(cfg.ctx, cell.P, cell.Rounds, cell.Trials, cell.Seed, faults.Config{})
			l.end(s)
			//xqlint:ignore floateq exact identity: both sides are the same failure count over the same trial count
			rep.check(err == nil && r == res.Rate, "cell %d ErrorRate %g, RunGridCell %g", i, r, res.Rate)
		}
		l.end(root)

		plain := -1
		untraced := func() {
			l.on = false
			t := time.Now()
			plain = rp.run(l, cell.P, cell.Rounds, cell.Trials, cell.Seed)
			plainNs += time.Since(t).Nanoseconds()
			l.on = true
		}
		if paired && i%8 == 7 {
			untraced()
		}
		t, w0 := time.Now(), l.leaves[leafWindow].ns
		fails := rp.run(l, cell.P, cell.Rounds, cell.Trials, cell.Seed)
		replayNs := time.Since(t).Nanoseconds()
		if paired && i%8 == 3 {
			untraced()
		}
		if paired {
			tracedNs += replayNs
			rep.check(plain == fails, "cell %d untraced replay: %d failures, traced %d", i, plain, fails)
		}
		if byP[cell.P] == nil {
			byP[cell.P] = &[2]int64{}
		}
		byP[cell.P][0] += l.leaves[leafWindow].ns - w0
		byP[cell.P][1] += replayNs
		rate := float64(fails) / float64(cell.Trials)
		//xqlint:ignore floateq exact identity: both sides are the same failure count over the same trial count
		rep.check(err == nil && rate == res.Rate, "cell %d replay: rate %g, RunGridCell %g", i, rate, res.Rate)
		units++
	}

	a := account(l.spans, l)
	backendMetrics(rep, a, units, "cell")
	for _, p := range thresholdPs {
		if v := byP[p]; v != nil && v[1] > 0 {
			rep.metric(fmt.Sprintf("decoder.share_pct@p=%g", p), 100*float64(v[0])/float64(v[1]), "%", 1, "of replayed backend time at this p")
		}
	}
	perUnit(rep, a, "sweep.cell", units, "cell")
	perCall(rep, a, "core.error_rate")
	decoderCounts(rep, rp)
	overheadMetrics(rep, a, float64(tracedNs), float64(plainNs), "traced vs untraced replay of the same cells")
	return saveTrace(cfg, l.spans, l)
}

// backendMetrics reports the decoder and microarch layers of replayed
// trials, per workload unit.
func backendMetrics(rep *report, a accounting, units int, unit string) {
	perUnit(rep, a, "decoder.window", units, unit)
	rep.pct("decoder.window_p50_us", a.durs["decoder.window"], 0.5, 1e-3, "us")
	rep.pct("decoder.window_p99_us", a.durs["decoder.window"], 0.99, 1e-3, "us")
	share := 0.0
	if rt := a.total["harness.replay"]; rt > 0 {
		share = 100 * float64(a.self["decoder.window"]) / float64(rt)
	}
	rep.metric("decoder.share_pct", share, "%", int(a.calls["harness.replay"]), "of replayed backend time")
	for _, name := range []string{"microarch.reset", "microarch.noise", "microarch.syndrome", "microarch.readout"} {
		perUnit(rep, a, name, units, unit)
	}
}

// perUnit reports a span's summed self time per traced unit as <name>_ms.
func perUnit(rep *report, a accounting, name string, units int, unit string) {
	v := 0.0
	if units > 0 {
		v = float64(a.self[name]) / 1e6 / float64(units)
	}
	rep.metric(name+"_ms", v, "ms", units, "self time per "+unit+" (mean)")
}

// perCall reports a span's mean self time per call as <name>_ms.
func perCall(rep *report, a accounting, name string) {
	n := int(a.calls[name])
	v := 0.0
	if n > 0 {
		v = float64(a.self[name]) / 1e6 / float64(n)
	}
	rep.metric(name+"_ms", v, "ms", n, "self time per call (mean)")
}

// overheadMetrics reports unattributed_pct and trace_overhead_pct.
func overheadMetrics(rep *report, a accounting, traced, plain float64, how string) {
	rep.metric("unattributed_pct", a.unattributedPct(), "%", a.spans, "traced wall not covered by layer self time")
	ov := 0.0
	if plain > 0 {
		ov = 100 * (traced/plain - 1)
	}
	rep.metric("trace_overhead_pct", ov, "%", 1, how)
}

func saveTrace(cfg runConfig, spans []span, lanes ...*lane) error {
	dir := filepath.Join(cfg.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.tsv", cfg.workload, cfg.seed))
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	return writeSpans(path, spans, lanes...)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
