package verify

import (
	"fmt"

	"xqsim/internal/decoder"
	"xqsim/internal/pauli"
	"xqsim/internal/surface"
	"xqsim/internal/xrand"
)

// backendFailureDetail checks the Backend contract for one backend on
// one syndrome and returns "" on success. It is the predicate the
// syndrome shrinker minimizes over:
//
//   - the correction's own syndrome equals the input exactly;
//   - the weight is never below the exact matcher's minimum;
//   - repeat decodes and a Clone return identical Results;
//   - the "matching" backend meets the differential contract against
//     ReferenceDecodePatch (decoder.CheckDifferential).
func backendFailureDetail(b decoder.Backend, c surface.Code, basis pauli.Pauli, syn map[surface.Coord]bool) string {
	bm := decoder.NewSyndromeBitmap(c)
	bm.FromMap(syn)
	var res decoder.Result
	b.Decode(c, basis, bm, &res)

	resyn := decoder.SyndromeOf(c, basis, res.Flips)
	for _, p := range sortedCells(syn) {
		if !resyn[p] {
			return fmt.Sprintf("correction does not cancel syndrome at %v (flips %v)", p, res.Flips)
		}
	}
	for _, p := range sortedCells(resyn) {
		if !syn[p] {
			return fmt.Sprintf("correction excites plaquette %v (flips %v)", p, res.Flips)
		}
	}
	exact := decoder.DecodePatch(c, basis, syn)
	if len(res.Flips) < len(exact.Flips) {
		return fmt.Sprintf("weight %d below the exact minimum %d (exact flips %v, got %v)", len(res.Flips), len(exact.Flips), exact.Flips, res.Flips)
	}
	if b.Name() == "matching" {
		if err := decoder.CheckDifferential(c, basis, syn, res); err != nil {
			return "matching backend: " + err.Error()
		}
	}
	var again, cloned decoder.Result
	b.Decode(c, basis, bm, &again)
	if !decodeResultsEqual(res, again) {
		return "repeat decode on the same backend diverged"
	}
	b.Clone().Decode(c, basis, bm, &cloned)
	if !decodeResultsEqual(res, cloned) {
		return "cloned backend diverged"
	}
	return ""
}

// shrinkSyndrome greedily minimizes a failing syndrome: it repeatedly
// removes single cells while the predicate keeps failing, to a fixed
// point, giving a locally-minimal repro.
func shrinkSyndrome(syn map[surface.Coord]bool, fails func(map[surface.Coord]bool) bool) map[surface.Coord]bool {
	cur := make(map[surface.Coord]bool)
	//xqlint:ignore maprange per-key copy into another map; order cannot matter
	for p, on := range syn {
		if on {
			cur[p] = true
		}
	}
	for pass := 0; pass < 16; pass++ {
		removed := false
		for _, p := range sortedCells(cur) {
			delete(cur, p)
			if fails(cur) {
				removed = true
				continue
			}
			cur[p] = true
		}
		if !removed {
			break
		}
	}
	return cur
}

// CheckBackends cross-checks every registered decode backend against the
// frozen reference matcher on the suite's randomized syndrome shapes
// (arbitrary plaquette subsets and random error chains, the same
// generator CheckDecoder uses). A failing syndrome is shrunk to a
// locally-minimal cell set before reporting, so the replay seed comes
// with a small explicit repro.
func CheckBackends(seed int64, d, trials int) *Failure {
	rng := xrand.New(seed)
	c := surface.NewCode(d)
	backends := make([]decoder.Backend, 0, 2)
	for _, name := range decoder.BackendNames() {
		b, err := decoder.NewBackendByName(name)
		if err != nil {
			return &Failure{Check: "backends", Seed: seed, Detail: err.Error()}
		}
		backends = append(backends, b)
	}
	for trial := 0; trial < trials; trial++ {
		basis := pauli.Z
		if rng.Intn(2) == 1 {
			basis = pauli.X
		}
		var syn map[surface.Coord]bool
		if trial%3 == 0 {
			syn = make(map[surface.Coord]bool)
			for _, st := range c.Stabilizers() {
				if st.Basis == basis && rng.Float64() < 0.15 {
					syn[st.Anc] = true
				}
			}
		} else {
			var errs []surface.Coord
			for i := 0; i < 1+rng.Intn(d); i++ {
				errs = append(errs, surface.Coord{Row: rng.Intn(d), Col: rng.Intn(d)})
			}
			syn = decoder.SyndromeOf(c, basis, errs)
		}
		for _, b := range backends {
			detail := backendFailureDetail(b, c, basis, syn)
			if detail == "" {
				continue
			}
			small := shrinkSyndrome(syn, func(s map[surface.Coord]bool) bool {
				return backendFailureDetail(b, c, basis, s) != ""
			})
			detail = backendFailureDetail(b, c, basis, small)
			return &Failure{
				Check: "backends",
				Seed:  seed,
				Detail: fmt.Sprintf("d=%d trial=%d backend=%s basis=%v: %s\nshrunk syndrome: %v",
					d, trial, b.Name(), basis, detail, sortedCells(small)),
			}
		}
	}
	return nil
}
