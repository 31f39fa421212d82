package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, or a harness
// span that groups the calls made for one workload unit. Harness span
// names start with "harness."; every other name is "<layer>.<call>".
type span struct {
	name       string
	start, end int64 // nanoseconds since the trace epoch
	parent     int   // index of the enclosing span in the same lane, -1 at a root
	unit       int   // workload unit (cell, pass, job) the span was recorded for
	lane       int   // goroutine that recorded it
	leafNs     int64 // time of leaf calls made directly inside this span
}

// Leaf calls are layer calls too frequent to keep one record each (a
// d=9 trial makes ~60 backend calls, a Table-3 pass 10,240 shots). Each
// is timed like a span, summed per name, and its time counts as covered
// time of the span it ran in. Windows and shots keep every duration for
// their percentiles.
const (
	leafReset = iota
	leafNoise
	leafSyndrome
	leafWindow
	leafReadout
	leafShot
	numLeaves
)

var leafNames = [numLeaves]string{
	"microarch.reset", "microarch.noise", "microarch.syndrome", "decoder.window", "microarch.readout", "microarch.shot",
}

type leafStat struct {
	n, ns int64
	durs  []float64
}

// lane records the spans of one goroutine. A nil or switched-off lane
// records nothing, so traced and untraced units run the same calls.
type lane struct {
	id     int
	epoch  time.Time
	on     bool
	unit   int
	spans  []span
	open   []int
	leaves [numLeaves]leafStat
}

func newLane(id int, epoch time.Time) *lane { return &lane{id: id, epoch: epoch, on: true} }

func (l *lane) tracing() bool { return l != nil && l.on }

// begin opens a span nested in the innermost open one and returns its
// index for end; it returns -1 when the lane is not tracing.
func (l *lane) begin(name string) int {
	if !l.tracing() {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{name: name, start: l.now(), end: -1, parent: parent, unit: l.unit, lane: l.id})
	i := len(l.spans) - 1
	l.open = append(l.open, i)
	return i
}

// end closes the span begin returned.
func (l *lane) end(i int) {
	if i < 0 {
		return
	}
	l.spans[i].end = l.now()
	l.open = l.open[:len(l.open)-1]
}

// dur is a closed span's length in nanoseconds (0 for -1).
func (l *lane) dur(i int) int64 {
	if i < 0 {
		return 0
	}
	return l.spans[i].end - l.spans[i].start
}

// mark starts timing a leaf call.
func (l *lane) mark() int64 {
	if !l.tracing() {
		return 0
	}
	return l.now()
}

// leaf records a leaf call that started at mark t0.
func (l *lane) leaf(id int, t0 int64) {
	if !l.tracing() {
		return
	}
	d := l.now() - t0
	st := &l.leaves[id]
	st.n++
	st.ns += d
	if id == leafWindow || id == leafShot {
		st.durs = append(st.durs, float64(d))
	}
	if n := len(l.open); n > 0 {
		l.spans[l.open[n-1]].leafNs += d
	}
}

func (l *lane) now() int64 { return time.Since(l.epoch).Nanoseconds() }

// mergeLanes concatenates the lanes' spans, rebasing parent indices.
func mergeLanes(lanes ...*lane) []span {
	var out []span
	for _, l := range lanes {
		base := len(out)
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover: the union of its child spans' intervals, clipped
// to it, plus the leaf calls made directly inside it.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, spans, kids[i]) - s.leafNs
	}
	return self
}

func covered(p span, spans []span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for i, x := range iv {
		if i > 0 && x[0] <= hi {
			hi = max(hi, x[1])
			continue
		}
		total += hi - lo
		lo, hi = x[0], x[1]
	}
	return total + hi - lo
}

func isLayer(name string) bool { return !strings.HasPrefix(name, "harness.") }

// accounting sums a traced run's spans and leaf calls by name.
type accounting struct {
	self  map[string]int64     // name -> summed self time, ns
	total map[string]int64     // name -> summed duration, ns
	durs  map[string][]float64 // name -> durations, ns (every span; windows and shots among leaves)
	calls map[string]int64     // name -> number of calls
	spans int                  // span records
	wall  int64                // summed duration of root spans: the traced wall
	layer int64                // summed self time of layer spans and leaf calls
}

func account(spans []span, lanes ...*lane) accounting {
	a := accounting{self: map[string]int64{}, total: map[string]int64{}, durs: map[string][]float64{}, calls: map[string]int64{}, spans: len(spans)}
	for i, st := range selfTimes(spans) {
		s := spans[i]
		d := s.end - s.start
		a.self[s.name] += st
		a.total[s.name] += d
		a.durs[s.name] = append(a.durs[s.name], float64(d))
		a.calls[s.name]++
		if s.parent < 0 {
			a.wall += d
		}
		if isLayer(s.name) {
			a.layer += st
		}
	}
	for _, l := range lanes {
		for id, st := range l.leaves {
			name := leafNames[id]
			a.self[name] += st.ns
			a.total[name] += st.ns
			a.durs[name] = append(a.durs[name], st.durs...)
			a.calls[name] += st.n
			a.layer += st.ns
		}
	}
	return a
}

// unattributedPct is the share of the traced wall that no layer self
// time accounts for: harness loops, scheduling gaps, client encoding.
func (a accounting) unattributedPct() float64 {
	if a.wall == 0 {
		return 0
	}
	return 100 * float64(a.wall-a.layer) / float64(a.wall)
}

// writeSpans writes the spans as tab-separated lines with their self
// times, then one summary line per leaf call name.
func writeSpans(path string, spans []span, lanes ...*lane) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	_, _ = fmt.Fprintln(w, "lane\tunit\tindex\tparent\tname\tstart_ns\tend_ns\tself_ns\tleaf_ns")
	for i, st := range selfTimes(spans) {
		s := spans[i]
		_, _ = fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.lane, s.unit, i, s.parent, s.name, s.start, s.end, st, s.leafNs)
	}
	_, _ = fmt.Fprintln(w, "# leaf\tlane\tname\tcalls\ttotal_ns")
	for _, l := range lanes {
		for id, st := range l.leaves {
			_, _ = fmt.Fprintf(w, "leaf\t%d\t%s\t%d\t%d\n", l.id, leafNames[id], st.n, st.ns)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
