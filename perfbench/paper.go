package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"xqsim/internal/compiler"
	"xqsim/internal/config"
	"xqsim/internal/core"
	"xqsim/internal/decoder"
	"xqsim/internal/ftqc"
	"xqsim/internal/statevec"
	"xqsim/internal/sweep"
)

// passExperiments is one paper pass: the `xqsweep -all` set plus the two
// threshold studies.
var passExperiments = []string{
	"fig5", "fig10", "fig12", "fig14", "fig16", "fig17", "fig18", "fig19",
	"table3", "table4", "sensitivity", "threshold", "circuit-threshold",
}

// paperShots is the paper's Table-3 shot count.
const paperShots = 2048

// paperPasses sizes the run: two passes per three seconds, and at least
// the 20 a median needs.
func paperPasses(seconds int) int { return max(minUnits, (2*seconds+2)/3) }

// table3Case is one Table-3 benchmark as sweep.Table3 runs it: the
// stabilizer-substituted circuit at its distance, with shot seeds from
// the pass seed + index*7919.
type table3Case struct {
	name string
	sub  compiler.Circuit
	d    int
}

func table3Cases() []table3Case {
	cs := []table3Case{
		{"PPR(Z3Z4Z5)", compiler.SinglePPR("ZZZ", ftqc.AnglePi8), 3},
		{"PPR(Y3X4Z5X6)", compiler.SinglePPR("YXZX", ftqc.AnglePi8), 3},
		{"PPR(Y3Y4Z5Z6)", compiler.SinglePPR("YYZZ", ftqc.AnglePi8), 3},
		{"QFT", compiler.QFT2(2), 5},
		{"QAOA", compiler.QAOA(4), 5},
	}
	for i := range cs {
		cs[i].sub = cs[i].sub.SubstituteStabilizer()
	}
	return cs
}

const table3SeedStride = 7919

// ratePoints are the design points the pass measures through
// core.MeasureRates (Figs. 5, 14, 17, 19 and the sensitivity study).
var ratePoints = []struct {
	d      int
	scheme decoder.Scheme
}{
	{7, decoder.SchemeRoundRobin},
	{config.CodeDistance, decoder.SchemeRoundRobin},
	{config.CodeDistance, decoder.SchemePriority},
	{config.CodeDistance, decoder.SchemePatchSliding},
}

// The threshold study's grid (sweep.ThresholdStudy): every cell runs
// 400 trials of 3 windows from the pass seed.
var (
	studyDs = []int{3, 5, 7}
	studyPs = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.04}
)

const (
	studyTrials  = 400
	studyWindows = 3
)

func runPaper(cfg runConfig, rep *report) error {
	cases := table3Cases()
	su := &setups{what: "core.NewShotRunner for the five Table-3 circuits", fn: func() error {
		for i, c := range cases {
			if _, err := core.NewShotRunner(c.sub, c.d, config.PhysErrorRate, int64(i), core.RunOptions{}); err != nil {
				return err
			}
		}
		return nil
	}}
	if err := su.run(setupBatch); err != nil {
		return err
	}
	n := paperPasses(cfg.seconds)
	fmt.Printf("passes: %d, each of %d experiments, Table 3 at %d shots, pass k seeded from stream 100+k\n", n, len(passExperiments), paperShots)
	if cfg.trace {
		err := tracePaper(cfg, rep, cases, n)
		return errors.Join(err, su.run(setupBatch), su.report(rep))
	}

	warm := newReport()
	runPass(cfg, warm, cfg.derive(100), nil)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up pass failed")
	}
	var all []sweep.Result
	lat := make([]float64, 0, n)
	var rss rssSamples
	start := time.Now()
	for k := 1; k <= n; k++ {
		t := time.Now()
		res := runPass(cfg, rep, cfg.derive(100+uint64(k)), nil)
		lat = append(lat, ms(time.Since(t)))
		rss.sample()
		all = append(all, res...)
	}
	wall := time.Since(start)
	if err := errors.Join(su.run(setupBatch), su.report(rep)); err != nil {
		return err
	}
	rep.pct("unit_p50_ms", lat, 0.5, 1, "ms")
	if err := finishE2E(rep, wall, n, "passes", &rss); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSONL(&buf, all); err != nil {
		return err
	}
	rep.digest("passes-jsonl", buf.Bytes())
	return nil
}

// runPass runs the pass's experiments in order, a span around each, and
// checks each result is well formed.
func runPass(cfg runConfig, rep *report, seed int64, l *lane) []sweep.Result {
	out := make([]sweep.Result, 0, len(passExperiments))
	for _, id := range passExperiments {
		s := l.begin("sweep." + id)
		res, err := sweep.RunExperiment(cfg.ctx, id, sweep.ExperimentOptions{Shots: paperShots, Seed: seed})
		l.end(s)
		rep.op(err, "experiment "+id)
		if err != nil {
			continue
		}
		rep.op(checkResult(id, res), "experiment "+id+" result")
		out = append(out, res)
	}
	return out
}

// checkResult: the result is the experiment asked for, with finite
// anchors and series of matching lengths.
func checkResult(id string, r sweep.Result) error {
	if r.ID != id {
		return fmt.Errorf("result id %q", r.ID)
	}
	for k, v := range r.Anchors {
		if math.IsNaN(v[1]) || math.IsInf(v[1], 0) {
			return fmt.Errorf("anchor %q is %g", k, v[1])
		}
	}
	for _, s := range r.Series {
		if len(s.X) != len(s.Y) || len(s.X) == 0 {
			return fmt.Errorf("series %q has %d x and %d y values", s.Name, len(s.X), len(s.Y))
		}
	}
	return nil
}

// tracePaper runs the same n passes as the untraced run, odd ones traced
// and even ones untraced. A traced pass has a span around each
// RunExperiment call and is followed by three replays from outside: Table 3 through
// compiler.ReferenceDistribution, core.NewShotRunner and RunShot (its
// dTV must equal the pass's anchors), the pass's design points through
// core.MeasureRatesUncached (equal to what the pass memoized), and the
// threshold study through microarch.Backend (equal failure counts).
func tracePaper(cfg runConfig, rep *report, cases []table3Case, n int) error {
	l := newLane(0, cfg.epoch)
	rps := map[int]*replayer{}
	var tracedNs, plainNs int64
	var traced, plain int
	for k := 1; k <= n; k++ {
		seed := cfg.derive(100 + uint64(k))
		l.unit = k
		if k%2 == 0 {
			l.on = false
			t := time.Now()
			runPass(cfg, rep, seed, l)
			plainNs += time.Since(t).Nanoseconds()
			plain++
			l.on = true
			continue
		}
		root := l.begin("harness.pass")
		results := runPass(cfg, rep, seed, l)
		l.end(root)
		tracedNs += l.dur(root)
		traced++
		replayTable3(cfg, rep, l, cases, seed, find(results, "table3"))
		replayRates(rep, l, seed)
		replayStudy(rep, l, rps, seed, find(results, "threshold"))
	}

	a := account(l.spans, l)
	for _, id := range passExperiments {
		perUnit(rep, a, "sweep."+id, traced, "pass")
	}
	for _, name := range []string{"compiler.reference", "core.shot_runner", "core.measure_rates"} {
		perUnit(rep, a, name, traced, "pass")
	}
	rep.pct("microarch.shot_p50_us", a.durs["microarch.shot"], 0.5, 1e-3, "us")
	rep.pct("microarch.shot_p99_us", a.durs["microarch.shot"], 0.99, 1e-3, "us")
	rep.metric("microarch.shots", float64(a.calls["microarch.shot"]), "count", int(a.calls["microarch.shot"]), "Table-3 shots replayed")
	backendMetrics(rep, a, traced, "pass (threshold study replay)")
	var all []*replayer
	for _, d := range studyDs {
		if rp := rps[d]; rp != nil {
			all = append(all, rp)
		}
	}
	decoderCounts(rep, all...)
	overheadMetrics(rep, a, float64(tracedNs)/float64(max(traced, 1)), float64(plainNs)/float64(max(plain, 1)),
		fmt.Sprintf("mean traced pass (%d) vs untraced pass (%d)", traced, plain))
	return saveTrace(cfg, l.spans, l)
}

func find(rs []sweep.Result, id string) sweep.Result {
	for _, r := range rs {
		if r.ID == id {
			return r
		}
	}
	return sweep.Result{}
}

func replayTable3(cfg runConfig, rep *report, l *lane, cases []table3Case, seed int64, want sweep.Result) {
	root := l.begin("harness.table3")
	defer l.end(root)
	for i, c := range cases {
		s := l.begin("compiler.reference")
		ref := compiler.ReferenceDistribution(c.sub)
		l.end(s)
		s = l.begin("core.shot_runner")
		r, err := core.NewShotRunner(c.sub, c.d, config.PhysErrorRate, seed+int64(i)*table3SeedStride, core.RunOptions{})
		l.end(s)
		rep.op(err, "table3 replay runner "+c.name)
		if err != nil {
			continue
		}
		counts := make([]float64, 1<<uint(c.sub.NLQ))
		for shot := 0; shot < paperShots && err == nil; shot++ {
			t := l.mark()
			var key int
			_, key, err = r.RunShot(cfg.ctx, shot)
			l.leaf(leafShot, t)
			if err == nil {
				counts[key]++
			}
		}
		rep.op(err, "table3 replay shots "+c.name)
		for j := range counts {
			counts[j] /= paperShots
		}
		dtv := statevec.TotalVariation(ref, counts)
		anchor, ok := math.NaN(), false
		for k, v := range want.Anchors {
			if strings.HasPrefix(k, c.name+" dTV") {
				anchor, ok = v[1], true
			}
		}
		//xqlint:ignore floateq exact identity: the replay recomputes the same distribution from the same shots
		rep.check(ok && dtv == anchor, "table3 replay %s: dTV %g, pass anchor %g", c.name, dtv, anchor)
	}
}

func replayRates(rep *report, l *lane, seed int64) {
	root := l.begin("harness.rates")
	defer l.end(root)
	for _, pt := range ratePoints {
		s := l.begin("core.measure_rates")
		got := core.MeasureRatesUncached(pt.d, config.PhysErrorRate, pt.scheme, seed)
		l.end(s)
		want := core.MeasureRates(pt.d, config.PhysErrorRate, pt.scheme, seed)
		rep.check(got == want, "rates replay d=%d scheme=%d: %+v, pass memoized %+v", pt.d, pt.scheme, got, want)
	}
}

func replayStudy(rep *report, l *lane, rps map[int]*replayer, seed int64, want sweep.Result) {
	root := l.begin("harness.threshold")
	defer l.end(root)
	for di, d := range studyDs {
		rp := rps[d]
		if rp == nil {
			rp = newReplayer(d, studyPs[0])
			rps[d] = rp
		}
		for pi, p := range studyPs {
			rate := float64(rp.run(l, p, studyWindows, studyTrials, seed)) / studyTrials
			ok := di < len(want.Series) && pi < len(want.Series[di].Y)
			//xqlint:ignore floateq exact identity: both sides are the same failure count over the same trial count
			rep.check(ok && rate == want.Series[di].Y[pi], "threshold study replay d=%d p=%g: rate %g", d, p, rate)
		}
	}
}
