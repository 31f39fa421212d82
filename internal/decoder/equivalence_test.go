package decoder

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// randomSyndrome draws a random subset of the basis' plaquettes, biased
// toward the sparse densities the decode windows see, with occasional
// dense draws to stress clustering and the DP.
func randomSyndrome(r *rand.Rand, c surface.Code, basis pauli.Pauli, dense bool) map[surface.Coord]bool {
	syn := make(map[surface.Coord]bool)
	p := 0.05
	if dense {
		p = 0.35
	}
	for _, st := range c.Stabilizers() {
		if st.Basis != basis {
			continue
		}
		if r.Float64() < p {
			syn[st.Anc] = true
		}
	}
	// Sprinkle explicit-false entries: both paths must ignore them.
	for i := 0; i < 3; i++ {
		q := surface.Coord{Row: r.Intn(c.D + 1), Col: r.Intn(c.D + 1)}
		if !syn[q] {
			syn[q] = false
		}
	}
	return syn
}

// TestBitmapEquivalence holds the bit-packed decoder to the differential
// contract against the frozen map-based reference (reference.go) across
// random syndromes, sparse and dense.
func TestBitmapEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, d := range []int{3, 5, 7} {
		c := surface.NewCode(d)
		for _, basis := range []pauli.Pauli{pauli.Z, pauli.X} {
			for trial := 0; trial < 200; trial++ {
				syn := randomSyndrome(r, c, basis, trial%5 == 0)
				got := DecodePatch(c, basis, syn)
				if err := CheckDifferential(c, basis, syn, got); err != nil {
					t.Fatalf("d=%d basis=%v trial=%d: %v", d, basis, trial, err)
				}
			}
		}
	}
}

// TestBitmapEquivalenceFromErrors repeats the check with physically
// realizable syndromes (generated from random error chains), including a
// d=15 spot check at the paper's operating distance.
func TestBitmapEquivalenceFromErrors(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, d := range []int{3, 5, 7, 15} {
		c := surface.NewCode(d)
		for trial := 0; trial < 100; trial++ {
			basis := []pauli.Pauli{pauli.Z, pauli.X}[r.Intn(2)]
			var errs []surface.Coord
			for i := 0; i < 1+r.Intn(d); i++ {
				errs = append(errs, surface.Coord{Row: r.Intn(d), Col: r.Intn(d)})
			}
			syn := SyndromeOf(c, basis, errs)
			got := DecodePatch(c, basis, syn)
			if err := CheckDifferential(c, basis, syn, got); err != nil {
				t.Fatalf("d=%d basis=%v errs=%v: %v", d, basis, errs, err)
			}
		}
	}
}

// TestSmallClustersByteIdentical pins the DP side of the split: a
// syndrome whose clusters are all below blossomMinCluster decodes to
// exactly the reference's Result, matches and flips in the same order.
func TestSmallClustersByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	var sc Scratch
	checked := 0
	for _, d := range []int{3, 5, 7, 9, 15} {
		c := surface.NewCode(d)
		for trial := 0; trial < 200; trial++ {
			basis := []pauli.Pauli{pauli.Z, pauli.X}[trial%2]
			syn := randomSyndrome(r, c, basis, trial%3 == 0)
			small := true
			forEachCluster(c, basis, syn, &sc, func() {
				small = small && len(sc.member) < blossomMinCluster
			})
			if !small {
				continue
			}
			checked++
			want := ReferenceDecodePatch(c, basis, syn)
			if got := DecodePatch(c, basis, syn); !resultsEqual(want, got) {
				t.Fatalf("d=%d basis=%v trial=%d:\nref %+v\ngot %+v", d, basis, trial, want, got)
			}
		}
	}
	if checked < 500 {
		t.Fatalf("only %d all-small syndromes checked", checked)
	}
}

// TestLargeClustersNoWorseThanGreedy drives clusters past the
// reference's exact limit, where the reference falls back to greedy
// matching: the production decoder must stay exact, so each such cluster
// weighs at most the greedy matching.
func TestLargeClustersNoWorseThanGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	c := surface.NewCode(15)
	var sc Scratch
	large := 0
	for trial := 0; trial < 20; trial++ {
		syn := make(map[surface.Coord]bool)
		for _, st := range c.Stabilizers() {
			if st.Basis == pauli.Z && r.Float64() < 0.6 {
				syn[st.Anc] = true
			}
		}
		forEachCluster(c, pauli.Z, syn, &sc, func() {
			if len(sc.member) > refMaxExactCluster {
				large++
			}
		})
		if err := CheckDifferential(c, pauli.Z, syn, DecodePatch(c, pauli.Z, syn)); err != nil {
			t.Fatalf("trial=%d: %v", trial, err)
		}
	}
	if large == 0 {
		t.Fatal("no cluster exceeded the reference's exact limit")
	}
}

// TestScratchReuseIsolation asserts a reused Scratch carries no state
// between decodes: interleaving bases, distances and densities (small
// clusters on the DP, large ones on the blossom) through one scratch
// equals decoding each with a fresh Scratch.
func TestScratchReuseIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	var sc Scratch
	var res Result
	for trial := 0; trial < 200; trial++ {
		c := surface.NewCode([]int{5, 7, 9}[trial%3])
		basis := []pauli.Pauli{pauli.Z, pauli.X}[trial%2]
		syn := randomSyndrome(r, c, basis, trial%7 == 0)
		if trial%5 == 0 {
			syn = make(map[surface.Coord]bool)
			for _, st := range c.Stabilizers() {
				if st.Basis == basis && r.Float64() < 0.5 {
					syn[st.Anc] = true
				}
			}
		}
		bm := NewSyndromeBitmap(c)
		bm.FromMap(syn)
		DecodePatchInto(c, basis, bm, &sc, &res)
		var fresh Scratch
		var want Result
		DecodePatchInto(c, basis, bm, &fresh, &want)
		if !resultsEqual(want, res) {
			t.Fatalf("trial=%d: reused scratch diverged from a fresh one:\nfresh  %+v\nreused %+v", trial, want, res)
		}
	}
}

// TestByteIdenticalResults is the regression for the ordering audit: two
// identically-seeded decode runs must produce byte-identical Results even
// though the input syndromes pass through Go's randomized map iteration.
func TestByteIdenticalResults(t *testing.T) {
	run := func(seed int64) string {
		r := rand.New(rand.NewSource(seed))
		var out []byte
		for _, d := range []int{3, 7, 15} {
			c := surface.NewCode(d)
			for trial := 0; trial < 50; trial++ {
				basis := []pauli.Pauli{pauli.Z, pauli.X}[r.Intn(2)]
				syn := randomSyndrome(r, c, basis, trial%4 == 0)
				res := DecodePatch(c, basis, syn)
				out = fmt.Appendf(out, "%v|%v\n", res.Matches, res.Flips)
			}
		}
		return string(out)
	}
	if a, b := run(61), run(61); a != b {
		t.Fatal("identically-seeded decode runs produced different Results")
	}
}

// TestBitmapOps covers the bitmap container itself.
func TestBitmapOps(t *testing.T) {
	c := surface.NewCode(7)
	bm := NewSyndromeBitmap(c)
	pts := []surface.Coord{{Row: 0, Col: 0}, {Row: 3, Col: 5}, {Row: 7, Col: 7}}
	for _, p := range pts {
		bm.Set(p)
	}
	if bm.Count() != len(pts) {
		t.Fatalf("count = %d", bm.Count())
	}
	for _, p := range pts {
		if !bm.Get(p) {
			t.Fatalf("bit %v lost", p)
		}
	}
	got := bm.AppendCells(nil)
	if !reflect.DeepEqual(got, pts) {
		t.Fatalf("scan order %v, want row-major %v", got, pts)
	}
	bm.Clear(pts[1])
	if bm.Get(pts[1]) || bm.Count() != 2 {
		t.Fatal("clear failed")
	}
	// Resize to a smaller code must drop stale bits.
	bm.Resize(surface.NewCode(3))
	if bm.Count() != 0 {
		t.Fatalf("resize kept %d stale bits", bm.Count())
	}
}

// BenchmarkDecodePatch measures the allocation-free hot path on a
// representative d=15 window at the paper's syndrome density. The
// acceptance bar is zero allocations per decoded round (-benchmem).
func BenchmarkDecodePatch(b *testing.B) {
	c := surface.NewCode(15)
	r := rand.New(rand.NewSource(5))
	var errs []surface.Coord
	for i := 0; i < 6; i++ {
		errs = append(errs, surface.Coord{Row: r.Intn(15), Col: r.Intn(15)})
	}
	bm := NewSyndromeBitmap(c)
	bm.FromMap(SyndromeOf(c, pauli.Z, errs))
	var sc Scratch
	var res Result
	DecodePatchInto(c, pauli.Z, bm, &sc, &res) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodePatchInto(c, pauli.Z, bm, &sc, &res)
	}
}

// BenchmarkDecodePatchDense stresses the exact matcher with a heavy
// window (large clusters), still allocation-free after warmup.
func BenchmarkDecodePatchDense(b *testing.B) {
	c := surface.NewCode(15)
	r := rand.New(rand.NewSource(9))
	var errs []surface.Coord
	for i := 0; i < 20; i++ {
		errs = append(errs, surface.Coord{Row: r.Intn(15), Col: r.Intn(15)})
	}
	bm := NewSyndromeBitmap(c)
	bm.FromMap(SyndromeOf(c, pauli.Z, errs))
	var sc Scratch
	var res Result
	DecodePatchInto(c, pauli.Z, bm, &sc, &res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodePatchInto(c, pauli.Z, bm, &sc, &res)
	}
}

// BenchmarkSyndromeBitmap measures the bitmap fill/scan cycle that
// replaced the per-window map churn.
func BenchmarkSyndromeBitmap(b *testing.B) {
	c := surface.NewCode(15)
	bm := NewSyndromeBitmap(c)
	pts := []surface.Coord{{Row: 1, Col: 2}, {Row: 4, Col: 9}, {Row: 8, Col: 3}, {Row: 12, Col: 14}, {Row: 15, Col: 7}}
	cells := make([]surface.Coord, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Reset()
		for _, p := range pts {
			bm.Set(p)
		}
		cells = bm.AppendCells(cells[:0])
	}
	if len(cells) != len(pts) {
		b.Fatal("scan lost cells")
	}
}
