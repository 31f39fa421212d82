package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"xqsim/internal/sweep"
)

// selfCheck runs the harness's own checks before every run; each counts
// as one operation of the run.
func selfCheck(rep *report) {
	rep.op(checkQuantile(), "self-check: quantile refusal")
	rep.op(checkSelfTimes(), "self-check: nested span self times")
	rep.op(checkReplay(), "self-check: d=3 replay against RunGridCell")
}

// checkQuantile: no percentile without ten samples beyond it.
func checkQuantile() error {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0}, {20, 0.5, true, 10}, {21, 0.5, true, 11},
		{99, 0.9, false, 0}, {100, 0.9, true, 90},
		{999, 0.99, false, 0}, {1000, 0.99, true, 990},
		{1, 0.5, false, 0}, {0, 0.5, false, 0},
	} {
		v, err := quantile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			return fmt.Errorf("quantile(n=%d, q=%g): err=%v, want ok=%v", c.n, c.q, err, c.ok)
		}
		//xqlint:ignore floateq exact: nearest-rank quantiles of integer samples
		if c.ok && v != c.want {
			return fmt.Errorf("quantile(n=%d, q=%g) = %g, want %g", c.n, c.q, v, c.want)
		}
	}
	return nil
}

// checkSelfTimes: self time is duration minus the union of the children's
// intervals (overlapping children counted once, clipped to the parent)
// minus leaf time; unattributed is root time not covered by layer self
// time.
func checkSelfTimes() error {
	spans := []span{
		{name: "harness.unit", start: 0, end: 100, parent: -1},
		{name: "a.call", start: 10, end: 40, parent: 0},
		{name: "b.call", start: 30, end: 60, parent: 0, leafNs: 5},
		{name: "c.call", start: 15, end: 20, parent: 1},
		{name: "d.call", start: 90, end: 120, parent: 0},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30 - 5, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	l := &lane{}
	l.leaves[leafNoise] = leafStat{n: 1, ns: 5} // the leaf call inside b.call
	a := account(spans, l)
	if a.wall != 100 || a.layer != 25+25+5+30+5 {
		return fmt.Errorf("accounting: wall %d layer %d, want 100 and 90", a.wall, a.layer)
	}
	if u := a.unattributedPct(); math.Abs(u-10) > 1e-9 {
		return fmt.Errorf("unattributed %g%%, want 10%%", u)
	}
	return nil
}

// checkReplay: replaying a tiny d=3 cell through the backend reproduces
// RunGridCell's failure count.
func checkReplay() error {
	g, err := sweep.GridSpec{Kind: sweep.GridThreshold, Ds: []int{3}, Ps: []float64{0.03}, Trials: 64, Seed: 12345}.Normalize()
	if err != nil {
		return err
	}
	cell := g.Cell(0)
	res, _, err := sweep.RunGridCell(context.Background(), g, cell, nil)
	if err != nil {
		return err
	}
	l := newLane(0, time.Now())
	fails := newReplayer(3, cell.P).run(l, cell.P, cell.Rounds, cell.Trials, cell.Seed)
	//xqlint:ignore floateq exact identity: both sides are the same failure count over the same trial count
	if rate := float64(fails) / float64(cell.Trials); rate != res.Rate || fails == 0 {
		return fmt.Errorf("replayed rate %g (%d failures), RunGridCell %g", rate, fails, res.Rate)
	}
	return nil
}
