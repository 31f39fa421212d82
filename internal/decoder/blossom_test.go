package decoder

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// matchWeight is a Result's total chain length.
func matchWeight(r Result) int {
	w := 0
	for _, m := range r.Matches {
		w += m.Steps
	}
	return w
}

// forEachCluster loads syn into sc and calls fn once per cluster with
// sc.member holding its members.
func forEachCluster(c surface.Code, basis pauli.Pauli, syn map[surface.Coord]bool, sc *Scratch, fn func()) {
	bm := NewSyndromeBitmap(c)
	bm.FromMap(syn)
	sc.cells = bm.AppendCells(sc.cells[:0])
	if len(sc.cells) == 0 {
		return
	}
	groups := sc.prepare(c, basis)
	for g := 0; g < groups; g++ {
		sc.member = sc.member[:0]
		for i := range sc.cells {
			if sc.group[i] == int32(g) {
				sc.member = append(sc.member, int32(i))
			}
		}
		fn()
	}
}

// checkClusterSolvers solves the cluster in sc.member with both exact
// solvers and fails unless they agree on total weight and the blossom
// resolves every member exactly once.
func checkClusterSolvers(t *testing.T, c surface.Code, basis pauli.Pauli, sc *Scratch) {
	t.Helper()
	var dp, bl Result
	decodeClusterInto(c, basis, sc, &dp)
	decodeBlossomInto(c, basis, sc, &bl)
	if matchWeight(dp) != matchWeight(bl) || len(dp.Flips) != len(bl.Flips) {
		t.Fatalf("d=%d k=%d: blossom weight %d (flips %d), DP %d (flips %d)\nDP      %+v\nblossom %+v",
			c.D, len(sc.member), matchWeight(bl), len(bl.Flips), matchWeight(dp), len(dp.Flips), dp.Matches, bl.Matches)
	}
	seen := make(map[surface.Coord]int)
	for _, m := range bl.Matches {
		seen[m.From]++
		if !m.ToBoundary {
			seen[m.To]++
		}
	}
	for _, mi := range sc.member {
		if p := sc.cells[mi]; seen[p] != 1 {
			t.Fatalf("d=%d k=%d: member %v resolved %d times", c.D, len(sc.member), p, seen[p])
		}
	}
}

// TestBlossomMatchesDP pins the blossom matcher to the bitmask DP's
// optimum on every cluster the DP can solve, over random plaquette
// subsets from sparse to dense at several distances, in both bases.
func TestBlossomMatchesDP(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	var sc Scratch
	clusters := 0
	for _, d := range []int{3, 5, 7, 9} {
		c := surface.NewCode(d)
		for _, basis := range []pauli.Pauli{pauli.Z, pauli.X} {
			for trial := 0; trial < 150; trial++ {
				p := []float64{0.1, 0.2, 0.35, 0.5}[trial%4]
				syn := make(map[surface.Coord]bool)
				for _, st := range c.Stabilizers() {
					if st.Basis == basis && r.Float64() < p {
						syn[st.Anc] = true
					}
				}
				forEachCluster(c, basis, syn, &sc, func() {
					if len(sc.member) > refMaxExactCluster {
						return
					}
					clusters++
					checkClusterSolvers(t, c, basis, &sc)
				})
			}
		}
	}
	if clusters < 1000 {
		t.Fatalf("only %d clusters exercised", clusters)
	}
}

// highPWindow is one captured decode window: a basis and its syndrome.
type highPWindow struct {
	basis pauli.Pauli
	syn   map[surface.Coord]bool
}

// loadHighPWindows reads testdata/highp_d9_windows.txt, real d=9 decode
// windows at p=3.08% (see the file header).
func loadHighPWindows(t testing.TB) []highPWindow {
	t.Helper()
	f, err := os.Open("testdata/highp_d9_windows.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []highPWindow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		w := highPWindow{basis: pauli.Z, syn: make(map[surface.Coord]bool)}
		if fields[0] == "X" {
			w.basis = pauli.X
		}
		for _, cell := range fields[1:] {
			var p surface.Coord
			if _, err := fmt.Sscanf(cell, "%d,%d", &p.Row, &p.Col); err != nil {
				t.Fatalf("bad cell %q: %v", cell, err)
			}
			w.syn[p] = true
		}
		out = append(out, w)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCapturedHighPWindows holds the decoder to the differential
// contract on real above-threshold windows, where nearly every window is
// one large cluster: the blossom must reach the DP oracle's exact weight
// on every cluster of k <= 20, and stay at or below greedy beyond.
func TestCapturedHighPWindows(t *testing.T) {
	c := surface.NewCode(9)
	var sc Scratch
	// The oracle's 2^k DP takes ~0.1 s per k=20 cluster, so -short (the
	// race-detector CI run) checks every fifth window.
	stride, minExact, minBeyond := 1, 150, 20
	if testing.Short() {
		stride, minExact, minBeyond = 5, 30, 4
	}
	blossomExact, beyondOracle := 0, 0
	for i, w := range loadHighPWindows(t) {
		if i%stride != 0 {
			continue
		}
		forEachCluster(c, w.basis, w.syn, &sc, func() {
			switch k := len(sc.member); {
			case k > refMaxExactCluster:
				beyondOracle++
			case k >= blossomMinCluster:
				blossomExact++
			}
		})
		if err := CheckDifferential(c, w.basis, w.syn, DecodePatch(c, w.basis, w.syn)); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	if blossomExact < minExact || beyondOracle < minBeyond {
		t.Fatalf("captured set exercises %d blossom clusters with k <= %d and %d beyond; want >= %d and >= %d",
			blossomExact, refMaxExactCluster, beyondOracle, minExact, minBeyond)
	}
}

// densestHighPWindow returns the captured window with the most
// syndromes (a single cluster of k=26).
func densestHighPWindow(t testing.TB) highPWindow {
	var best highPWindow
	for _, w := range loadHighPWindows(t) {
		if len(w.syn) > len(best.syn) {
			best = w
		}
	}
	return best
}

// TestDecodePatchSteadyStateAllocs pins the zero-allocation steady state
// of DecodePatchInto on a dense d=9 window whose one cluster (k=26) runs
// through the blossom matcher.
func TestDecodePatchSteadyStateAllocs(t *testing.T) {
	c := surface.NewCode(9)
	w := densestHighPWindow(t)
	bm := NewSyndromeBitmap(c)
	bm.FromMap(w.syn)
	var sc Scratch
	var res Result
	DecodePatchInto(c, w.basis, bm, &sc, &res) // warm the scratch
	if k := len(res.Matches); k == 0 {
		t.Fatal("dense window decoded to nothing")
	}
	allocs := testing.AllocsPerRun(50, func() {
		DecodePatchInto(c, w.basis, bm, &sc, &res)
	})
	if allocs != 0 {
		t.Fatalf("dense d=9 decode allocates %.1f/op in steady state, want 0", allocs)
	}
}

// clusterPool draws random dense d=11 Z syndromes until it holds `want`
// clusters of exactly k members, returned as cell lists in scan order.
func clusterPool(k, want int) [][]surface.Coord {
	r := rand.New(rand.NewSource(int64(1000 + k)))
	c := surface.NewCode(11)
	var sc Scratch
	var pool [][]surface.Coord
	for len(pool) < want {
		syn := make(map[surface.Coord]bool)
		p := 0.1 + 0.3*r.Float64()
		for _, st := range c.Stabilizers() {
			if st.Basis == pauli.Z && r.Float64() < p {
				syn[st.Anc] = true
			}
		}
		forEachCluster(c, pauli.Z, syn, &sc, func() {
			if len(sc.member) != k || len(pool) >= want {
				return
			}
			cells := make([]surface.Coord, k)
			for i, mi := range sc.member {
				cells[i] = sc.cells[mi]
			}
			pool = append(pool, cells)
		})
	}
	return pool
}

// BenchmarkClusterSolvers is the k-sweep that sets blossomMinCluster:
// the per-cluster cost of the bitmask DP and of the blossom matcher on
// the same random clusters of exactly k members (d=11, Z basis).
// Clustering and distance tables are built outside the timed loop.
func BenchmarkClusterSolvers(b *testing.B) {
	c := surface.NewCode(11)
	for _, k := range []int{4, 6, 8, 9, 10, 11, 12, 13, 14, 16, 18, 20} {
		pool := clusterPool(k, 64)
		for _, solver := range []struct {
			name string
			fn   func(surface.Code, pauli.Pauli, *Scratch, *Result)
		}{{"dp", decodeClusterInto}, {"blossom", decodeBlossomInto}} {
			b.Run(fmt.Sprintf("k=%02d/%s", k, solver.name), func(b *testing.B) {
				scs := make([]Scratch, len(pool))
				for i, cells := range pool {
					scs[i].cells = cells
					scs[i].prepare(c, pauli.Z)
					for j := range cells {
						scs[i].member = append(scs[i].member, int32(j))
					}
				}
				var res Result
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res.Flips, res.Matches = res.Flips[:0], res.Matches[:0]
					solver.fn(c, pauli.Z, &scs[i%len(scs)], &res)
				}
			})
		}
	}
}

// TestCheckDifferentialCatchesViolations feeds the contract checker
// deliberately broken Results, so a checker that passes everything
// cannot hide behind the green decode tests.
func TestCheckDifferentialCatchesViolations(t *testing.T) {
	c := surface.NewCode(7)
	// One data error in the bulk: two adjacent Z plaquettes, paired.
	syn := SyndromeOf(c, pauli.Z, []surface.Coord{{Row: 3, Col: 3}})
	good := DecodePatch(c, pauli.Z, syn)
	if err := CheckDifferential(c, pauli.Z, syn, good); err != nil {
		t.Fatalf("correct decode rejected: %v", err)
	}
	if len(good.Matches) != 1 || good.Matches[0].ToBoundary {
		t.Fatalf("unexpected decode %+v", good)
	}
	pair := good.Matches[0]
	for _, tc := range []struct {
		name string
		res  Result
	}{
		{"missing match", Result{}},
		{"wrong steps", Result{Flips: good.Flips, Matches: []Match{{From: pair.From, To: pair.To, Steps: 2}}}},
		{"heavier matching", func() Result {
			var r Result
			for _, p := range []surface.Coord{pair.From, pair.To} {
				r.Matches = append(r.Matches, Match{From: p, ToBoundary: true, Steps: boundaryDist(c, pauli.Z, p)})
				r.Flips = appendBoundaryPath(r.Flips, c, pauli.Z, p)
			}
			return r
		}()},
		{"flips that do not cancel", Result{Flips: []surface.Coord{{Row: 0, Col: 0}}, Matches: good.Matches}},
		{"same weight, different bytes", Result{Flips: good.Flips, Matches: []Match{{From: pair.To, To: pair.From, Steps: pair.Steps}}}},
	} {
		if err := CheckDifferential(c, pauli.Z, syn, tc.res); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.res)
		}
	}
}
