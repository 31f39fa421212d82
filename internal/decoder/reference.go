package decoder

// This file freezes the seed's map-based decoder implementation verbatim
// (modulo ref* renames). It is the oracle of the differential harness.
// The production decoder (DecodePatchInto) is exact minimum-weight for
// every cluster size; this reference is exact only up to
// refMaxExactCluster syndromes per cluster and falls back to greedy
// nearest-pair matching above that. The contract the equivalence tests,
// FuzzDecodePatch and internal/verify's decoder check pin per cluster:
//
//   - k <= refMaxExactCluster: production total weight equals this one;
//   - k > refMaxExactCluster: production total weight is at most this
//     (greedy) one;
//   - the correction annihilates the syndrome;
//   - a syndrome whose clusters are all below blossomMinCluster decodes
//     to a byte-identical Result (both run the same DP).
//
// Do not "optimize" this file.

import (
	"sort"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// refMaxExactCluster bounds the reference's bitmask DP; larger clusters
// fall back to greedy nearest-pair matching.
const refMaxExactCluster = 20

// ReferenceDecodePatch decodes one patch window with the frozen
// reference matcher. It is deliberately simple and allocation-heavy;
// production callers use DecodePatch / DecodePatchInto, which meet the
// differential contract above against this function.
func ReferenceDecodePatch(c surface.Code, basis pauli.Pauli, syndrome map[surface.Coord]bool) Result {
	cells := make([]surface.Coord, 0, len(syndrome))
	for p, on := range syndrome {
		if on {
			cells = append(cells, p)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})

	var res Result
	for _, cluster := range refClusterSyndromes(c, basis, cells) {
		refDecodeCluster(c, basis, cluster, &res)
	}
	return res
}

func refClusterSyndromes(c surface.Code, basis pauli.Pauli, cells []surface.Coord) [][]surface.Coord {
	n := len(cells)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if plaquetteDist(cells[i], cells[j]) <= boundaryDist(c, basis, cells[i])+boundaryDist(c, basis, cells[j]) {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := make(map[int][]surface.Coord)
	var order []int
	for i, p := range cells {
		r := find(i)
		if _, seen := groups[r]; !seen {
			order = append(order, r)
		}
		groups[r] = append(groups[r], p)
	}
	out := make([][]surface.Coord, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

func refDecodeCluster(c surface.Code, basis pauli.Pauli, cells []surface.Coord, res *Result) {
	n := len(cells)
	if n == 0 {
		return
	}
	if n > refMaxExactCluster {
		refDecodeGreedy(c, basis, cells, res)
		return
	}
	// f[S] = min cost to resolve the syndromes in subset S.
	f := make([]int, 1<<uint(n))
	choice := make([]int32, 1<<uint(n)) // partner index, or -1 for boundary
	for s := 1; s < 1<<uint(n); s++ {
		i := 0
		for s&(1<<uint(i)) == 0 {
			i++
		}
		rest := s &^ (1 << uint(i))
		best := boundaryDist(c, basis, cells[i]) + f[rest]
		bestJ := int32(-1)
		for j := i + 1; j < n; j++ {
			if rest&(1<<uint(j)) == 0 {
				continue
			}
			cost := plaquetteDist(cells[i], cells[j]) + f[rest&^(1<<uint(j))]
			if cost < best {
				best, bestJ = cost, int32(j)
			}
		}
		f[s] = best
		choice[s] = bestJ
	}
	// Reconstruct.
	for s := 1<<uint(n) - 1; s != 0; {
		i := 0
		for s&(1<<uint(i)) == 0 {
			i++
		}
		j := choice[s]
		if j < 0 {
			res.Matches = append(res.Matches, Match{From: cells[i], ToBoundary: true, Steps: boundaryDist(c, basis, cells[i])})
			res.Flips = append(res.Flips, boundaryPath(c, basis, cells[i])...)
			s &^= 1 << uint(i)
			continue
		}
		res.Matches = append(res.Matches, Match{From: cells[i], To: cells[j], Steps: plaquetteDist(cells[i], cells[j])})
		res.Flips = append(res.Flips, pairPath(c, cells[i], cells[j])...)
		s &^= 1<<uint(i) | 1<<uint(j)
	}
}

func refDecodeGreedy(c surface.Code, basis pauli.Pauli, cells []surface.Coord, res *Result) {
	open := make(map[surface.Coord]bool, len(cells))
	for _, p := range cells {
		open[p] = true
	}
	for _, tok := range cells {
		if !open[tok] {
			continue
		}
		open[tok] = false
		best := surface.Coord{}
		bestDist := -1
		for _, cand := range cells {
			if !open[cand] {
				continue
			}
			d := plaquetteDist(tok, cand)
			if bestDist < 0 || d < bestDist {
				best, bestDist = cand, d
			}
		}
		bd := boundaryDist(c, basis, tok)
		if bestDist < 0 || bd < bestDist {
			res.Matches = append(res.Matches, Match{From: tok, ToBoundary: true, Steps: bd})
			res.Flips = append(res.Flips, boundaryPath(c, basis, tok)...)
			continue
		}
		open[best] = false
		res.Matches = append(res.Matches, Match{From: tok, To: best, Steps: bestDist})
		res.Flips = append(res.Flips, pairPath(c, tok, best)...)
	}
}
