package decoder

import (
	"fmt"
	"sort"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// CheckDifferential checks got, a production decode of syndrome, against
// the frozen reference matcher under the differential contract (see
// reference.go), one cluster at a time:
//
//   - every syndrome is resolved exactly once, each pair stays inside
//     its cluster, and each match's Steps is its true chain length;
//   - the correction annihilates the syndrome exactly;
//   - a cluster of k <= refMaxExactCluster syndromes has the reference's
//     (minimum) total weight; a larger one weighs at most the
//     reference's greedy matching;
//   - when every cluster has fewer than blossomMinCluster syndromes,
//     got is byte-identical to ReferenceDecodePatch.
//
// It returns nil when the contract holds and otherwise an error naming
// the first violation.
func CheckDifferential(c surface.Code, basis pauli.Pauli, syndrome map[surface.Coord]bool, got Result) error {
	var cells []surface.Coord
	//xqlint:ignore maprange collects keys, sorted below
	for p, on := range syndrome {
		if on {
			cells = append(cells, p)
		}
	}
	sortCoords(cells)
	clusters := refClusterSyndromes(c, basis, cells)
	clusterOf := make(map[surface.Coord]int, len(cells))
	for ci, cl := range clusters {
		for _, p := range cl {
			clusterOf[p] = ci
		}
	}

	weight := make([]int, len(clusters))
	resolved := make(map[surface.Coord]int, len(cells))
	total := 0
	for _, m := range got.Matches {
		ci, ok := clusterOf[m.From]
		if !ok {
			return fmt.Errorf("match %+v starts at a quiet plaquette", m)
		}
		resolved[m.From]++
		if m.ToBoundary {
			if want := boundaryDist(c, basis, m.From); m.Steps != want {
				return fmt.Errorf("boundary match %+v has %d steps, chain length is %d", m, m.Steps, want)
			}
		} else {
			if cj, ok := clusterOf[m.To]; !ok || cj != ci {
				return fmt.Errorf("match %+v pairs across clusters or with a quiet plaquette", m)
			}
			if want := plaquetteDist(m.From, m.To); m.Steps != want {
				return fmt.Errorf("pair match %+v has %d steps, chain length is %d", m, m.Steps, want)
			}
			resolved[m.To]++
		}
		weight[ci] += m.Steps
		total += m.Steps
	}
	for _, p := range cells {
		if resolved[p] != 1 {
			return fmt.Errorf("syndrome %v resolved %d times, want once", p, resolved[p])
		}
	}
	if len(got.Flips) != total {
		return fmt.Errorf("%d flips for matches of total length %d", len(got.Flips), total)
	}

	resyn := SyndromeOf(c, basis, got.Flips)
	for _, p := range cells {
		if !resyn[p] {
			return fmt.Errorf("correction does not cancel syndrome at %v (flips %v)", p, got.Flips)
		}
	}
	excited := make([]surface.Coord, 0, len(resyn))
	//xqlint:ignore maprange collects keys, sorted below
	for p, on := range resyn {
		if on && !syndrome[p] {
			excited = append(excited, p)
		}
	}
	if len(excited) > 0 {
		sortCoords(excited)
		return fmt.Errorf("correction excites plaquette %v (flips %v)", excited[0], got.Flips)
	}

	allDP := true
	for ci, cl := range clusters {
		var ref Result
		refDecodeCluster(c, basis, cl, &ref)
		refWeight := 0
		for _, m := range ref.Matches {
			refWeight += m.Steps
		}
		k := len(cl)
		switch {
		case k <= refMaxExactCluster && weight[ci] != refWeight:
			return fmt.Errorf("cluster of %d syndromes at %v: weight %d, reference minimum %d", k, cl[0], weight[ci], refWeight)
		case k > refMaxExactCluster && weight[ci] > refWeight:
			return fmt.Errorf("cluster of %d syndromes at %v: weight %d above the reference's greedy %d", k, cl[0], weight[ci], refWeight)
		}
		if k >= blossomMinCluster {
			allDP = false
		}
	}
	if allDP {
		if ref := ReferenceDecodePatch(c, basis, syndrome); !resultsEqual(ref, got) {
			return fmt.Errorf("every cluster is below %d syndromes, yet the Result differs from the reference\nref %+v\ngot %+v", blossomMinCluster, ref, got)
		}
	}
	return nil
}

// sortCoords orders plaquettes row-major, the hardware's cell scan order.
func sortCoords(cells []surface.Coord) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
}

// resultsEqual reports whether two Results hold the same matches and
// flips in the same order.
func resultsEqual(a, b Result) bool {
	if len(a.Matches) != len(b.Matches) || len(a.Flips) != len(b.Flips) {
		return false
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			return false
		}
	}
	for i := range a.Flips {
		if a.Flips[i] != b.Flips[i] {
			return false
		}
	}
	return true
}
