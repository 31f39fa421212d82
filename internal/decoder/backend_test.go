package decoder

import (
	"math/rand"
	"testing"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// synFromBitmap converts a bitmap back to the map form the reference
// decoder consumes.
func synFromBitmap(bm *SyndromeBitmap) map[surface.Coord]bool {
	syn := make(map[surface.Coord]bool)
	for _, p := range bm.AppendCells(nil) {
		syn[p] = true
	}
	return syn
}

// checkBackendContract asserts the Backend contract on one decode: the
// correction annihilates the input syndrome exactly, the weight is never
// below the exact matcher's minimum, and the matching backend meets the
// differential contract against the frozen reference.
func checkBackendContract(t *testing.T, b Backend, c surface.Code, basis pauli.Pauli, bm *SyndromeBitmap) {
	t.Helper()
	syn := synFromBitmap(bm)
	exact := DecodePatch(c, basis, syn)

	var res Result
	b.Decode(c, basis, bm, &res)

	resyn := SyndromeOf(c, basis, res.Flips)
	for p := range syn {
		if !resyn[p] {
			t.Fatalf("%s d=%d basis=%v: correction misses plaquette %v (flips %v)", b.Name(), c.D, basis, p, res.Flips)
		}
	}
	for p, on := range resyn {
		if on && !syn[p] {
			t.Fatalf("%s d=%d basis=%v: correction excites plaquette %v (flips %v)", b.Name(), c.D, basis, p, res.Flips)
		}
	}
	if len(res.Flips) < len(exact.Flips) {
		t.Fatalf("%s d=%d basis=%v: weight %d below the exact minimum %d", b.Name(), c.D, basis, len(res.Flips), len(exact.Flips))
	}
	if b.Name() == "matching" {
		if err := CheckDifferential(c, basis, syn, res); err != nil {
			t.Fatalf("matching d=%d basis=%v: %v", c.D, basis, err)
		}
	}

	// Determinism: the same backend, a fresh one, and a clone all agree.
	var again, fresh, cloned Result
	b.Decode(c, basis, bm, &again)
	if !resultsEqual(res, again) {
		t.Fatalf("%s d=%d: repeat decode diverged", b.Name(), c.D)
	}
	nb, err := NewBackendByName(b.Name())
	if err != nil {
		t.Fatal(err)
	}
	nb.Decode(c, basis, bm, &fresh)
	if !resultsEqual(res, fresh) {
		t.Fatalf("%s d=%d: fresh backend diverged", b.Name(), c.D)
	}
	b.Clone().Decode(c, basis, bm, &cloned)
	if !resultsEqual(res, cloned) {
		t.Fatalf("%s d=%d: clone diverged", b.Name(), c.D)
	}
}

// TestBackendRegistry pins the registry contents and the error path.
func TestBackendRegistry(t *testing.T) {
	names := BackendNames()
	want := []string{"matching", "union-find"}
	if len(names) != len(want) {
		t.Fatalf("BackendNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("BackendNames() = %v, want %v", names, want)
		}
	}
	for _, name := range names {
		b, err := NewBackendByName(name)
		if err != nil || b == nil || b.Name() != name {
			t.Fatalf("NewBackendByName(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := NewBackendByName("nope"); err == nil {
		t.Fatal("NewBackendByName accepted garbage")
	}
}

// TestBackendContractRandomSyndromes drives every registered backend over
// random plaquette subsets (including unrealizable ones) and random
// error-chain syndromes.
func TestBackendContractRandomSyndromes(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for _, name := range BackendNames() {
		b, err := NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{3, 5, 7} {
			c := surface.NewCode(d)
			bm := NewSyndromeBitmap(c)
			for _, basis := range []pauli.Pauli{pauli.Z, pauli.X} {
				for trial := 0; trial < 120; trial++ {
					var syn map[surface.Coord]bool
					if trial%3 == 0 {
						syn = randomSyndrome(r, c, basis, trial%6 == 0)
					} else {
						var errs []surface.Coord
						for i := 0; i < 1+r.Intn(d); i++ {
							errs = append(errs, surface.Coord{Row: r.Intn(d), Col: r.Intn(d)})
						}
						syn = SyndromeOf(c, basis, errs)
					}
					bm.Resize(c)
					bm.FromMap(syn)
					checkBackendContract(t, b, c, basis, bm)
				}
			}
		}
	}
}

// TestBackendEmptySyndromeIsFree asserts an all-quiet window decodes to
// an empty correction at zero modeled cost on every backend.
func TestBackendEmptySyndromeIsFree(t *testing.T) {
	c := surface.NewCode(5)
	bm := NewSyndromeBitmap(c)
	for _, name := range BackendNames() {
		b, err := NewBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := Result{Flips: []surface.Coord{{Row: 1}}, Matches: []Match{{}}}
		cycles := b.Decode(c, pauli.Z, bm, &res)
		if len(res.Flips) != 0 || len(res.Matches) != 0 {
			t.Fatalf("%s: empty syndrome left a correction %+v", name, res)
		}
		if cycles != 0 {
			t.Fatalf("%s: empty syndrome cost %d cycles", name, cycles)
		}
	}
}

// TestUnionFindSingleDefectTerminatesOnBoundary pins the simplest
// cluster: one defect must grow to its nearest boundary and terminate
// there with a minimum-length chain.
func TestUnionFindSingleDefectTerminatesOnBoundary(t *testing.T) {
	c := surface.NewCode(5)
	u := NewUnionFindBackend()
	for _, st := range c.Stabilizers() {
		if st.Basis != pauli.Z {
			continue
		}
		bm := NewSyndromeBitmap(c)
		bm.Set(st.Anc)
		var res Result
		u.Decode(c, pauli.Z, bm, &res)
		if len(res.Matches) != 1 || !res.Matches[0].ToBoundary {
			t.Fatalf("anc %v: matches %+v, want one boundary match", st.Anc, res.Matches)
		}
		ref := ReferenceDecodePatch(c, pauli.Z, map[surface.Coord]bool{st.Anc: true})
		if len(res.Flips) != len(ref.Flips) {
			t.Fatalf("anc %v: boundary chain weight %d, reference %d", st.Anc, len(res.Flips), len(ref.Flips))
		}
	}
}

// TestUnionFindAdjacentPairMatches pins the other primitive: two adjacent
// defects (one data error between them) must pair with each other, not
// run to the boundary, whenever pairing is cheaper.
func TestUnionFindAdjacentPairMatches(t *testing.T) {
	c := surface.NewCode(7)
	u := NewUnionFindBackend()
	// A single data error in the bulk excites exactly two Z-plaquettes one
	// chain step apart.
	syn := SyndromeOf(c, pauli.Z, []surface.Coord{{Row: 3, Col: 3}})
	bm := NewSyndromeBitmap(c)
	bm.FromMap(syn)
	var res Result
	u.Decode(c, pauli.Z, bm, &res)
	if len(res.Matches) != 1 || res.Matches[0].ToBoundary {
		t.Fatalf("matches %+v, want one pair match", res.Matches)
	}
	if len(res.Flips) != 1 || res.Flips[0] != (surface.Coord{Row: 3, Col: 3}) {
		t.Fatalf("flips %v, want the single injected error", res.Flips)
	}
}

// TestMatchingCycleCostMatchesPipelineModel keeps the backend's latency
// model aligned with the per-match terms the pipeline charges under
// SchemePriority: any drift here would let tournament latencies diverge
// from pipeline latencies for the same decode.
func TestMatchingCycleCostMatchesPipelineModel(t *testing.T) {
	d := 7
	matches := []Match{{Steps: 2}, {Steps: 5, ToBoundary: true}}
	want := uint64(0)
	for _, m := range matches {
		want += uint64(2*m.Steps + 4*(d+1) + spikeOverheadCycles)
	}
	want += uint64(len(matches))
	if got := matchingCycleCost(d, matches); got != want {
		t.Fatalf("matchingCycleCost = %d, want %d", got, want)
	}
}

// TestUnionFindSteadyStateAllocs pins the zero-allocation steady state of
// the union-find scratch across repeated decodes.
func TestUnionFindSteadyStateAllocs(t *testing.T) {
	c := surface.NewCode(7)
	r := rand.New(rand.NewSource(73))
	var errs []surface.Coord
	for i := 0; i < 5; i++ {
		errs = append(errs, surface.Coord{Row: r.Intn(7), Col: r.Intn(7)})
	}
	bm := NewSyndromeBitmap(c)
	bm.FromMap(SyndromeOf(c, pauli.Z, errs))
	u := NewUnionFindBackend()
	var res Result
	u.Decode(c, pauli.Z, bm, &res) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		u.Decode(c, pauli.Z, bm, &res)
	})
	if allocs != 0 {
		t.Fatalf("union-find steady state allocates %.1f/op, want 0", allocs)
	}
}
