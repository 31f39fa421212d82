package main

import (
	"xqsim/internal/decoder"
	"xqsim/internal/microarch"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// trialSeedStride is the memory experiment's per-trial seed stride:
// trial t of a cell seeded s runs from s + t*trialSeedStride
// (core.MemoryRunner.Trial, sweep.RunGridCell).
const trialSeedStride = 6151

// replayer re-runs memory-experiment trials from outside the simulator,
// through the public methods of microarch.Backend in the order
// core.MemoryRunner.Trial calls them, with a span around each call. The
// backend's Reset contract makes a trial's outcome independent of which
// backend runs it, so one replayer on one goroutine reproduces a cell's
// failure count exactly and its spans add up along a single timeline.
type replayer struct {
	d  int
	b  *microarch.Backend
	pr pauli.Product

	// Counts that explain the decode time; gathered on traced replays.
	windows, syndromes, matches int64
	cycles                      uint64
}

func newReplayer(d int, p float64) *replayer {
	b := microarch.NewBackend(surface.NewPPRLayout(1, d), p, 0, true)
	return &replayer{d: d, b: b, pr: pauli.NewProduct(b.NumLQ())}
}

// run replays `trials` trials of `windows` decode windows at physical
// error rate p and returns how many failed.
func (r *replayer) run(l *lane, p float64, windows, trials int, seed int64) int {
	root := l.begin("harness.replay")
	defer l.end(root)
	r.b.SetPhysError(p)
	fails := 0
	for t := 0; t < trials; t++ {
		if r.trial(l, windows, seed+int64(t)*trialSeedStride) {
			fails++
		}
	}
	return fails
}

func (r *replayer) trial(l *lane, windows int, seed int64) bool {
	b := r.b
	t := l.mark()
	b.Reset(seed)
	b.PrepareZero(0)
	l.leaf(leafReset, t)
	for w := 0; w < windows; w++ {
		for rd := 0; rd < r.d; rd++ {
			t = l.mark()
			b.InjectRoundNoise()
			l.leaf(leafNoise, t)
			t = l.mark()
			b.MeasureSyndromesRound(rd == r.d-1)
			l.leaf(leafSyndrome, t)
		}
		t = l.mark()
		wd := b.FinishWindow()
		l.leaf(leafWindow, t)
		if l.tracing() {
			r.windows++
			r.syndromes += int64(wd.Syndromes)
			r.matches += int64(len(wd.MatchesZ) + len(wd.MatchesX))
			r.cycles += microarch.DecodeWindowCycles(decoder.SchemePriority, r.d, wd)
		}
	}
	for q := range r.pr.Ops {
		r.pr.Ops[q] = pauli.I
	}
	r.pr.Phase = 0
	r.pr.Ops[0] = pauli.Z
	t = l.mark()
	fail := b.MeasureProduct(r.pr)
	l.leaf(leafReadout, t)
	return fail
}

// decoderCounts adds the replayers' decode counts to the report.
func decoderCounts(rep *report, rs ...*replayer) {
	var windows, syndromes, matches int64
	var cycles uint64
	for _, r := range rs {
		windows += r.windows
		syndromes += r.syndromes
		matches += r.matches
		cycles += r.cycles
	}
	n := float64(max(windows, 1))
	rep.metric("decoder.windows", float64(windows), "count", int(windows), "")
	rep.metric("decoder.syndromes_per_window", float64(syndromes)/n, "count", int(windows), "mean")
	rep.metric("decoder.matches_per_window", float64(matches)/n, "count", int(windows), "mean")
	rep.metric("decoder.cycles_per_window", float64(cycles)/n, "cycles", int(windows), "mean")
}
