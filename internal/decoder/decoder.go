// Package decoder implements the error decode unit's matching algorithm:
// the spike/token nearest-pair decoder of QECOOL [69] extended for lattice
// surgery, in the three token-setup variants studied in the paper:
//
//   - SchemeRoundRobin: the baseline, which shifts the token one ancilla
//     cell per cycle while scanning for non-trivial syndromes (Fig. 15a);
//   - SchemePriority: Optimization #1, a priority encoder that allocates
//     the token directly to the next non-trivial cell (Fig. 15b);
//   - SchemePatchSliding: Optimization #4, which decodes through a
//     constant-size sliding window of EDU cells (Fig. 20), producing the
//     same matching with far fewer powered cells.
//
// The matching itself is identical across schemes (the paper's
// optimizations change latency and power, not the decode result); this
// package computes matches, correction paths, and per-scheme cycle
// accounting inputs. Decoding is per basis type: Z-type plaquettes detect
// X errors, whose chains terminate on the X-boundaries (left/right in the
// canonical orientation), and symmetrically for X-type plaquettes.
//
// The hot path is allocation-free: syndromes travel as bit-packed
// SyndromeBitmaps, per-distance boundary tables are precomputed once, and
// DecodePatchInto threads a reusable Scratch through clustering, the
// exact per-cluster matcher, and path reconstruction. The matching is
// exact minimum-weight for every cluster size: small clusters use a
// bitmask DP, large ones Edmonds' blossom algorithm (see
// DecodePatchInto). The map-based DecodePatch remains as a convenience
// wrapper producing identical results.
package decoder

import (
	"math/bits"
	"sort"
	"sync"

	"xqsim/internal/pauli"
	"xqsim/internal/surface"
)

// Scheme selects the token-setup microarchitecture.
type Scheme int

// Token-setup schemes.
const (
	SchemeRoundRobin Scheme = iota
	SchemePriority
	SchemePatchSliding
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeRoundRobin:
		return "round-robin"
	case SchemePriority:
		return "priority"
	case SchemePatchSliding:
		return "patch-sliding"
	}
	return "?"
}

// Match records one decoded pairing.
type Match struct {
	From surface.Coord // token cell (plaquette coordinates)
	To   surface.Coord // matched cell; meaningless if ToBoundary
	// ToBoundary marks a chain terminated on an open boundary.
	ToBoundary bool
	// Steps is the chain length in data-qubit flips.
	Steps int
}

// Result is the outcome of decoding one patch window for one basis.
type Result struct {
	// Flips lists the data qubits (patch-local coordinates) whose errors
	// the decoder identified. For Z-type decoding these are X errors.
	Flips []surface.Coord
	// Matches lists the pairings in token allocation order.
	Matches []Match
}

// plaquetteDist is the minimum number of diagonal chain steps between two
// same-type plaquettes (Chebyshev distance; coordinates of equal-type
// plaquettes always have component differences of equal parity).
func plaquetteDist(a, b surface.Coord) int {
	dr, dc := a.Row-b.Row, a.Col-b.Col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	if dr > dc {
		return dr
	}
	return dc
}

// boundaryDist is the chain length from a plaquette to its nearest open
// boundary: left/right for Z-type plaquettes, top/bottom for X-type.
func boundaryDist(c surface.Code, basis pauli.Pauli, p surface.Coord) int {
	if basis == pauli.Z {
		if p.Col <= c.D-p.Col {
			return p.Col
		}
		return c.D - p.Col
	}
	if p.Row <= c.D-p.Row {
		return p.Row
	}
	return c.D - p.Row
}

// boundaryTables holds the per-plaquette boundary distances of one code
// distance, indexed row*(d+1)+col, for both decode bases.
type boundaryTables struct {
	z, x []int16
}

// bTableCache caches boundary tables per code distance: every ESM round
// decodes the same few distances, so the table is built once per process.
var bTableCache sync.Map // int (d) -> *boundaryTables

func boundaryTable(c surface.Code, basis pauli.Pauli) []int16 {
	if t, ok := bTableCache.Load(c.D); ok {
		bt := t.(*boundaryTables)
		if basis == pauli.Z {
			return bt.z
		}
		return bt.x
	}
	stride := c.D + 1
	bt := &boundaryTables{
		z: make([]int16, stride*stride),
		x: make([]int16, stride*stride),
	}
	for r := 0; r < stride; r++ {
		for col := 0; col < stride; col++ {
			p := surface.Coord{Row: r, Col: col}
			bt.z[r*stride+col] = int16(boundaryDist(c, pauli.Z, p))
			bt.x[r*stride+col] = int16(boundaryDist(c, pauli.X, p))
		}
	}
	t, _ := bTableCache.LoadOrStore(c.D, bt)
	bt = t.(*boundaryTables)
	if basis == pauli.Z {
		return bt.z
	}
	return bt.x
}

// boundaryPath returns the data qubits of the straight chain from
// plaquette p to its nearest open boundary.
func boundaryPath(c surface.Code, basis pauli.Pauli, p surface.Coord) []surface.Coord {
	return appendBoundaryPath(nil, c, basis, p)
}

// appendBoundaryPath appends boundaryPath's chain to out, avoiding a
// per-match allocation on the decode hot path.
func appendBoundaryPath(out []surface.Coord, c surface.Code, basis pauli.Pauli, p surface.Coord) []surface.Coord {
	if basis == pauli.Z {
		row := p.Row
		if row > c.D-1 {
			row = c.D - 1
		}
		if p.Col <= c.D-p.Col {
			for col := 0; col < p.Col; col++ {
				out = append(out, surface.Coord{Row: row, Col: col})
			}
		} else {
			for col := p.Col; col < c.D; col++ {
				out = append(out, surface.Coord{Row: row, Col: col})
			}
		}
		return out
	}
	col := p.Col
	if col > c.D-1 {
		col = c.D - 1
	}
	if p.Row <= c.D-p.Row {
		for row := 0; row < p.Row; row++ {
			out = append(out, surface.Coord{Row: row, Col: col})
		}
	} else {
		for row := p.Row; row < c.D; row++ {
			out = append(out, surface.Coord{Row: row, Col: col})
		}
	}
	return out
}

// pairPath walks diagonally from plaquette a to plaquette b, returning the
// data qubit crossed at each step. When one coordinate difference is
// exhausted the walk zigzags, alternating direction while staying inside
// the patch.
func pairPath(c surface.Code, a, b surface.Coord) []surface.Coord {
	return appendPairPath(nil, c, a, b)
}

// appendPairPath appends pairPath's chain to out.
func appendPairPath(out []surface.Coord, c surface.Code, a, b surface.Coord) []surface.Coord {
	r, col := a.Row, a.Col
	zig := 1
	for r != b.Row || col != b.Col {
		dr := sign(b.Row - r)
		if dr == 0 {
			dr = zig
			if r+dr < 0 || r+dr > c.D {
				dr = -dr
			}
			zig = -dr
		}
		dc := sign(b.Col - col)
		if dc == 0 {
			dc = zig
			if col+dc < 0 || col+dc > c.D {
				dc = -dc
			}
			zig = -dc
		}
		// Step (dr, dc) crosses the data qubit at the shared corner.
		cross := surface.Coord{Row: r + (dr-1)/2, Col: col + (dc-1)/2}
		out = append(out, cross)
		r += dr
		col += dc
	}
	return out
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// blossomMinCluster is the cluster size at which DecodePatchInto
// switches from the bitmask DP to the blossom matcher. Both are exact;
// below it the DP's 2^k table is cheaper than the blossom's O(k³) setup,
// at and above it the blossom wins. The value is the crossover of the
// k-sweep microbenchmark BenchmarkClusterSolvers (EXPERIMENTS.md).
const blossomMinCluster = 11

// Scratch holds the reusable working memory of one decode stream. A zero
// Scratch is ready to use; buffers grow to the high-water mark of the
// stream and are reused across calls, making DecodePatchInto
// allocation-free in steady state. A Scratch must not be shared between
// concurrent decoders.
type Scratch struct {
	cells  []surface.Coord // non-trivial plaquettes in scan order
	bdist  []int32         // per-cell boundary distance
	dist   []int32         // pairwise plaquette distances, n*n
	parent []int32         // union-find forest over cells
	gid    []int32         // root -> group id in first-seen order (-1 unset)
	group  []int32         // per-cell group id
	member []int32         // member gather buffer for one cluster
	f      []int32         // DP: min cost per subset
	choice []int32         // DP: chosen partner per subset (-1 = boundary)
	bl     blossom         // blossom matcher for clusters of blossomMinCluster or more
}

// growInt32 returns s resized to n, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// prepare loads the cells' distance views and clusters them: two
// syndromes join a cluster when their pairing could beat their boundary
// terminations. Group ids are assigned in first-seen scan order.
func (sc *Scratch) prepare(c surface.Code, basis pauli.Pauli) int {
	n := len(sc.cells)
	sc.bdist = growInt32(sc.bdist, n)
	sc.dist = growInt32(sc.dist, n*n)
	sc.parent = growInt32(sc.parent, n)
	sc.gid = growInt32(sc.gid, n)
	sc.group = growInt32(sc.group, n)

	bt := boundaryTable(c, basis)
	stride := c.D + 1
	for i, p := range sc.cells {
		sc.bdist[i] = int32(bt[p.Row*stride+p.Col])
		sc.parent[i] = int32(i)
		sc.gid[i] = -1
	}
	find := func(i int32) int32 {
		for sc.parent[i] != i {
			sc.parent[i] = sc.parent[sc.parent[i]]
			i = sc.parent[i]
		}
		return i
	}
	for i := 0; i < n; i++ {
		sc.dist[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			d := int32(plaquetteDist(sc.cells[i], sc.cells[j]))
			sc.dist[i*n+j] = d
			sc.dist[j*n+i] = d
			if d <= sc.bdist[i]+sc.bdist[j] {
				sc.parent[find(int32(i))] = find(int32(j))
			}
		}
	}
	groups := 0
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if sc.gid[r] < 0 {
			sc.gid[r] = int32(groups)
			groups++
		}
		sc.group[i] = sc.gid[r]
	}
	return groups
}

// DecodePatchInto computes the minimum-weight matching of the non-trivial
// plaquettes of one basis over one patch window, writing the result into
// res (whose slices are truncated and reused). It is the allocation-free
// core of DecodePatch: every syndrome pairs with another syndrome or
// terminates on an open boundary, minimizing the total chain length. This
// is the matching the racing spikes of the cell array converge to (the
// earliest spike to arrive wins); the per-scheme token setup changes only
// the cycle cost, computed separately by SchemeCycles.
//
// Syndromes are first split into independent clusters (two syndromes can
// only be profitably paired when their distance is below the sum of their
// boundary distances). Every cluster is solved exactly, whatever its
// size k: by bitmask dynamic programming when k < blossomMinCluster, and
// by Edmonds' blossom algorithm otherwise.
//
// Cells are consumed in row-major scan order (the hardware's cell scan
// order), so identical syndromes always produce identical Results. Within
// a cluster, matches are listed by their lower-indexed member in scan
// order. When several matchings share the minimum weight, the DP keeps
// the first option it meets for the lowest member (the boundary before
// any partner, then the lowest-indexed partner); the blossom returns the
// optimum its search reaches first, which is deterministic but may be a
// different one of the tied matchings.
func DecodePatchInto(c surface.Code, basis pauli.Pauli, syn *SyndromeBitmap, sc *Scratch, res *Result) {
	res.Flips = res.Flips[:0]
	res.Matches = res.Matches[:0]
	sc.cells = syn.AppendCells(sc.cells[:0])
	n := len(sc.cells)
	if n == 0 {
		return
	}
	groups := sc.prepare(c, basis)
	for g := 0; g < groups; g++ {
		sc.member = sc.member[:0]
		for i := 0; i < n; i++ {
			if sc.group[i] == int32(g) {
				sc.member = append(sc.member, int32(i))
			}
		}
		if len(sc.member) < blossomMinCluster {
			decodeClusterInto(c, basis, sc, res)
		} else {
			decodeBlossomInto(c, basis, sc, res)
		}
	}
}

// decodeClusterInto solves one cluster (sc.member) exactly by bitmask DP.
// f[S] is the minimum cost to resolve the syndromes in subset S; the
// lowest set bit is always resolved first, either against the boundary or
// against a higher member, so each subset is visited once. f needs no
// clearing between calls: every entry is written (in ascending subset
// order) before it is read.
func decodeClusterInto(c surface.Code, basis pauli.Pauli, sc *Scratch, res *Result) {
	k := len(sc.member)
	if k == 0 {
		return
	}
	n := len(sc.cells)
	size := 1 << uint(k)
	sc.f = growInt32(sc.f, size)
	sc.choice = growInt32(sc.choice, size)
	sc.f[0] = 0
	for s := 1; s < size; s++ {
		i := bits.TrailingZeros32(uint32(s))
		rest := s &^ (1 << uint(i))
		mi := int(sc.member[i])
		best := sc.bdist[mi] + sc.f[rest]
		bestJ := int32(-1)
		for r := rest; r != 0; r &= r - 1 {
			j := bits.TrailingZeros32(uint32(r))
			cost := sc.dist[mi*n+int(sc.member[j])] + sc.f[rest&^(1<<uint(j))]
			if cost < best {
				best, bestJ = cost, int32(j)
			}
		}
		sc.f[s] = best
		sc.choice[s] = bestJ
	}
	// Reconstruct.
	for s := size - 1; s != 0; {
		i := bits.TrailingZeros32(uint32(s))
		mi := int(sc.member[i])
		j := sc.choice[s]
		if j < 0 {
			res.Matches = append(res.Matches, Match{From: sc.cells[mi], ToBoundary: true, Steps: int(sc.bdist[mi])})
			res.Flips = appendBoundaryPath(res.Flips, c, basis, sc.cells[mi])
			s &^= 1 << uint(i)
			continue
		}
		mj := int(sc.member[j])
		res.Matches = append(res.Matches, Match{From: sc.cells[mi], To: sc.cells[mj], Steps: int(sc.dist[mi*n+mj])})
		res.Flips = appendPairPath(res.Flips, c, sc.cells[mi], sc.cells[mj])
		s &^= 1<<uint(i) | 1<<uint(j)
	}
}

// decodeBlossomInto solves one cluster (sc.member) exactly as a
// minimum-weight perfect matching on 2k vertices: member i is vertex i+1,
// its boundary twin is vertex k+i+1. Edges are member–member at the
// chain length (pruned where it is no shorter than both boundary chains,
// which never beats sending both members to the boundary), member–own
// twin at the boundary distance, and twin–twin at zero, so twins pair
// off whichever members the matching leaves for the boundary. The
// blossom maximizes weight, so each edge carries big - w, where big
// exceeds k times the largest w and every maximum-weight matching is
// therefore perfect. Matches are emitted in the DP's order: by lower
// member index.
func decodeBlossomInto(c surface.Code, basis pauli.Pauli, sc *Scratch, res *Result) {
	k := len(sc.member)
	n := len(sc.cells)
	var wmax int32
	for a, ma := range sc.member {
		bi := sc.bdist[ma]
		wmax = max(wmax, bi)
		for _, mb := range sc.member[a+1:] {
			if d := sc.dist[int(ma)*n+int(mb)]; d < bi+sc.bdist[mb] {
				wmax = max(wmax, d)
			}
		}
	}
	big := int32(k)*wmax + 1
	m := &sc.bl
	m.reset(2 * k)
	for a, ma := range sc.member {
		bi := sc.bdist[ma]
		m.setEdge(a+1, k+a+1, big-bi)
		for b := a + 1; b < k; b++ {
			mb := sc.member[b]
			if d := sc.dist[int(ma)*n+int(mb)]; d < bi+sc.bdist[mb] {
				m.setEdge(a+1, b+1, big-d)
			}
			m.setEdge(k+a+1, k+b+1, big)
		}
	}
	// Twin–twin edges carry the top weight, so pairing the twins up front
	// is a tight starting matching: it saves the blossom half its stages.
	for a := 0; a+1 < k; a += 2 {
		m.prematch(k+a+1, k+a+2)
	}
	m.solve()
	for a, ma := range sc.member {
		mate := int(m.match[a+1]) - 1
		switch {
		case mate >= k:
			res.Matches = append(res.Matches, Match{From: sc.cells[ma], ToBoundary: true, Steps: int(sc.bdist[ma])})
			res.Flips = appendBoundaryPath(res.Flips, c, basis, sc.cells[ma])
		case mate > a:
			mb := int(sc.member[mate])
			res.Matches = append(res.Matches, Match{From: sc.cells[ma], To: sc.cells[mb], Steps: int(sc.dist[int(ma)*n+mb])})
			res.Flips = appendPairPath(res.Flips, c, sc.cells[ma], sc.cells[mb])
		}
	}
}

// patchState pools the conversion buffers behind the map-based
// convenience API, so occasional DecodePatch callers don't pay a fresh
// bitmap + scratch per call.
type patchState struct {
	bm SyndromeBitmap
	sc Scratch
}

var patchPool = sync.Pool{New: func() any { return new(patchState) }}

// DecodePatch decodes one patch window from the map syndrome
// representation. It is a convenience wrapper over DecodePatchInto
// (entries with value false are ignored) and returns an identical Result:
// cells are consumed in row-major order regardless of map iteration
// order, matching the hardware's cell scan order.
func DecodePatch(c surface.Code, basis pauli.Pauli, syndrome map[surface.Coord]bool) Result {
	st := patchPool.Get().(*patchState)
	st.bm.Resize(c)
	//xqlint:ignore maprange each key sets its own bit; DecodePatchInto scans the bitmap row-major
	for p, on := range syndrome {
		if on {
			st.bm.Set(p)
		}
	}
	var res Result
	DecodePatchInto(c, basis, &st.bm, &st.sc, &res)
	patchPool.Put(st)
	return res
}

// SyndromeOf computes the non-trivial plaquettes of the given basis for a
// set of data-qubit errors (patch-local coordinates carrying the opposite
// Pauli type: X errors for Z-plaquettes). Intended for tests and for the
// quantum backend's syndrome generation.
func SyndromeOf(c surface.Code, basis pauli.Pauli, errors []surface.Coord) map[surface.Coord]bool {
	errSet := make(map[surface.Coord]int, len(errors))
	for _, e := range errors {
		errSet[e]++
	}
	out := make(map[surface.Coord]bool)
	for _, st := range c.Stabilizers() {
		if st.Basis != basis {
			continue
		}
		par := 0
		for _, q := range st.Data {
			par += errSet[q]
		}
		if par%2 == 1 {
			out[st.Anc] = true
		}
	}
	return out
}

// residualLogicalError reports whether error+correction flips the logical
// operator of the basis type detected by `basis` plaquettes: Z-plaquettes
// detect X errors, which corrupt logical Z (vertical string on column 0);
// the parity of flips crossing that string decides a logical error.
func residualLogicalError(c surface.Code, basis pauli.Pauli, errors, correction []surface.Coord) bool {
	var logical []surface.Coord
	if basis == pauli.Z {
		logical = c.LogicalZ()
	} else {
		logical = c.LogicalX()
	}
	onLogical := make(map[surface.Coord]bool, len(logical))
	for _, q := range logical {
		onLogical[q] = true
	}
	par := 0
	for _, q := range errors {
		if onLogical[q] {
			par++
		}
	}
	for _, q := range correction {
		if onLogical[q] {
			par++
		}
	}
	return par%2 == 1
}

// SchemeCycles models the EDU cycle count for one decode window under a
// token-setup scheme.
//
//   - Round-robin pays one cycle per EDU cell scanned while shifting the
//     token across the whole array (totalCells), plus the spike round trip
//     per match.
//   - The priority encoder allocates each token in a single cycle.
//   - Patch-sliding matches the priority encoder's latency, adding one
//     pipeline-fill cycle per window slide (the double-buffered global
//     ESM_srmem hides the reload itself).
//
// spikeOverheadCycles covers token grant, state-machine transition, and
// match removal per token.
const spikeOverheadCycles = 4

// SchemeCycles returns the modeled cycles. totalCells is the number of
// cells in the scanned array (all active ancillas of the basis);
// numWindows is the number of window slides (patch-sliding only).
func SchemeCycles(s Scheme, matches []Match, totalCells, numWindows int) int {
	cycles := 0
	for _, m := range matches {
		cycles += 2*m.Steps + spikeOverheadCycles
	}
	switch s {
	case SchemeRoundRobin:
		cycles += totalCells
	case SchemePriority:
		cycles += len(matches)
	case SchemePatchSliding:
		cycles += len(matches) + numWindows
	}
	return cycles
}

// ResidualLogicalError reports whether error plus correction flips the
// logical operator threatened by this basis' errors (X errors corrupt
// logical Z and vice versa). Exposed for the quantum backend's
// logical-error accounting and for tests.
func ResidualLogicalError(c surface.Code, basis pauli.Pauli, errors, correction []surface.Coord) bool {
	return residualLogicalError(c, basis, errors, correction)
}

// LatticeSyndrome maps patch index -> non-trivial plaquettes of one basis.
type LatticeSyndrome map[int]map[surface.Coord]bool

// DecodeLattice decodes every patch of a lattice syndrome with the full
// per-ancilla cell array (the baseline organization: all patches' cells
// exist simultaneously). Patches decode in ascending index order — the
// per-patch results are independent, but the explicit order keeps the
// whole walk reproducible instead of following map iteration order.
func DecodeLattice(c surface.Code, basis pauli.Pauli, syn LatticeSyndrome) map[int]Result {
	patches := make([]int, 0, len(syn))
	for p := range syn {
		patches = append(patches, p)
	}
	sort.Ints(patches)
	out := make(map[int]Result, len(syn))
	for _, patch := range patches {
		out[patch] = DecodePatch(c, basis, syn[patch])
	}
	return out
}

// DecodeLatticeSliding decodes the same lattice through Optimization #4's
// sliding window: a constant-size cell array serves `window` patches at a
// time, sliding across the lattice in patch order (Fig. 20). It returns
// the per-patch results plus the number of window slides performed.
//
// The paper's key insight — non-trivial syndromes pair within the code
// distance, so matching restricted to the window equals the full-array
// matching — holds by construction here; TestPatchSlidingEquivalence
// asserts it.
func DecodeLatticeSliding(c surface.Code, basis pauli.Pauli, syn LatticeSyndrome, window int) (map[int]Result, int) {
	if window < 1 {
		window = 6
	}
	patches := make([]int, 0, len(syn))
	for p := range syn {
		patches = append(patches, p)
	}
	sort.Ints(patches)
	out := make(map[int]Result, len(syn))
	slides := 0
	for start := 0; start < len(patches); start += window {
		end := start + window
		if end > len(patches) {
			end = len(patches)
		}
		// One window load decodes its resident patches.
		for _, p := range patches[start:end] {
			out[p] = DecodePatch(c, basis, syn[p])
		}
		slides++
	}
	return out, slides
}
