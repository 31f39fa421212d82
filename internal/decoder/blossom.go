package decoder

import "math"

// blossom is the working memory of an O(n³) weighted Edmonds blossom
// matcher on a dense graph of n vertices (the primal-dual algorithm of
// Galil, "Efficient algorithms for finding maximum matching in graphs",
// 1986, in the dense-matrix form with per-node best edges). Sparse
// blossom / PyMatching 2 (Higgott & Gidney, arXiv:2303.15933) solves the
// same problem on the decoding graph; clusters here are at most a few
// dozen syndromes, so the dense form is simpler and as fast.
//
// Vertices are numbered 1..n; blossoms take ids n+1..2n, reused once
// expanded; id 0 is the "none" sentinel. Every matrix is stride×stride,
// indexed u*stride+v. All arrays grow to the high-water mark and are
// reused, so solve never allocates.
//
// Dual values are kept doubled (an edge's slack is lab[u]+lab[v]-2w), so
// with integer weights every dual and every slack stays an integer.
type blossom struct {
	n, nx, stride int

	// eu/ev/ew hold, for each pair of nodes, the endpoints (original
	// vertices) and weight of the best edge between them; ew == 0 means
	// no edge.
	eu, ev, ew []int32
	// from[b*stride+x] is the child of blossom b that contains vertex x.
	from []int32
	// flower[b*stride:] lists blossom b's children around its odd cycle,
	// starting at the base; flen[b] is its length.
	flower []int32
	flen   []int32

	lab   []int32 // doubled dual per vertex; 2*z per blossom
	match []int32 // matched original vertex, 0 when free
	slack []int32 // vertex giving the least-slack edge into a node
	st    []int32 // top-level blossom containing each node
	pa    []int32 // vertex a T-node was labeled from
	label []int32 // -1 unlabeled, 0 outer (S), 1 inner (T)
	vis   []int32 // lca walk stamps
	stamp int32
	q     []int32 // queue of outer vertices to scan
	qh    int
	qt    int
}

// reset sizes the matcher for n vertices with no edges.
func (m *blossom) reset(n int) {
	stride := 2*n + 1
	m.n, m.nx, m.stride = n, n, stride
	sq := stride * stride
	m.eu = growInt32(m.eu, sq)
	m.ev = growInt32(m.ev, sq)
	m.ew = growInt32(m.ew, sq)
	m.from = growInt32(m.from, sq)
	m.flower = growInt32(m.flower, sq)
	m.flen = growInt32(m.flen, stride)
	m.lab = growInt32(m.lab, stride)
	m.match = growInt32(m.match, stride)
	m.slack = growInt32(m.slack, stride)
	m.st = growInt32(m.st, stride)
	m.pa = growInt32(m.pa, stride)
	m.label = growInt32(m.label, stride)
	m.vis = growInt32(m.vis, stride)
	m.q = growInt32(m.q, stride)
	// Only the vertex block of the matrices needs clearing: a blossom's
	// row and column are written by addBlossom before anything reads them.
	for u := 0; u <= n; u++ {
		row := u * stride
		for v := 0; v <= n; v++ {
			m.eu[row+v] = int32(u)
			m.ev[row+v] = int32(v)
			m.ew[row+v] = 0
			m.from[row+v] = 0
		}
		m.from[row+u] = int32(u)
	}
	for u := 0; u < stride; u++ {
		if u <= n {
			m.st[u] = int32(u)
		} else {
			m.st[u] = 0
		}
		m.flen[u] = 0
		m.match[u] = 0
		m.vis[u] = 0
	}
	m.stamp = 0
}

// setEdge adds the undirected edge u–v of weight w > 0.
func (m *blossom) setEdge(u, v int, w int32) {
	m.ew[u*m.stride+v] = w
	m.ew[v*m.stride+u] = w
}

// prematch matches u–v before solve. The edge must carry the largest
// weight in the graph, so it is tight under solve's initial duals.
func (m *blossom) prematch(u, v int) {
	m.match[u] = int32(v)
	m.match[v] = int32(u)
}

// slackOf is the doubled reduced cost of the edge stored at matrix index e.
func (m *blossom) slackOf(e int) int32 {
	return m.lab[m.eu[e]] + m.lab[m.ev[e]] - 2*m.ew[e]
}

// solve grows the (possibly prematched) matching into a maximum-weight
// matching, leaving each vertex's mate in match (0 for unmatched).
// decodeBlossomInto picks the weights so that this matching is perfect.
//
//xqlint:noalloc all working memory was sized by reset
func (m *blossom) solve() {
	var wmax int32
	for u := 1; u <= m.n; u++ {
		row := u * m.stride
		for v := 1; v <= m.n; v++ {
			if w := m.ew[row+v]; w > wmax {
				wmax = w
			}
		}
	}
	for u := 1; u <= m.n; u++ {
		m.lab[u] = wmax
	}
	for m.augmentOnce() {
	}
}

func (m *blossom) updateSlack(u, x int) {
	if s := int(m.slack[x]); s == 0 || m.slackOf(u*m.stride+x) < m.slackOf(s*m.stride+x) {
		m.slack[x] = int32(u)
	}
}

func (m *blossom) setSlack(x int) {
	m.slack[x] = 0
	for u := 1; u <= m.n; u++ {
		if m.ew[u*m.stride+x] > 0 && int(m.st[u]) != x && m.label[m.st[u]] == 0 {
			m.updateSlack(u, x)
		}
	}
}

func (m *blossom) qPush(x int) {
	if x <= m.n {
		m.q[m.qt] = int32(x)
		m.qt++
		return
	}
	base := x * m.stride
	for i := 0; i < int(m.flen[x]); i++ {
		m.qPush(int(m.flower[base+i]))
	}
}

func (m *blossom) setSt(x, b int) {
	m.st[x] = int32(b)
	if x > m.n {
		base := x * m.stride
		for i := 0; i < int(m.flen[x]); i++ {
			m.setSt(int(m.flower[base+i]), b)
		}
	}
}

// children returns blossom b's cycle, aliasing the flower storage.
func (m *blossom) children(b int) []int32 {
	base := b * m.stride
	return m.flower[base : base+int(m.flen[b])]
}

// reverseInt32 reverses s in place. (slices.Reverse is generic, which
// the noalloc analyzer cannot verify.)
func reverseInt32(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// evenPos returns xr's position in b's cycle, first reversing the cycle
// (all but the base) when xr sits at an odd position, so the path from
// the base to xr always has even length.
func (m *blossom) evenPos(b, xr int) int {
	fl := m.children(b)
	pr := 0
	for int(fl[pr]) != xr {
		pr++
	}
	if pr%2 == 1 {
		reverseInt32(fl[1:])
		return len(fl) - pr
	}
	return pr
}

// setMatch matches node u along its best edge to node v, rotating u's
// cycle (recursively) so the matched vertex becomes its base.
func (m *blossom) setMatch(u, v int) {
	e := u*m.stride + v
	m.match[u] = m.ev[e]
	if u <= m.n {
		return
	}
	xr := int(m.from[u*m.stride+int(m.eu[e])])
	pr := m.evenPos(u, xr)
	fl := m.children(u)
	for i := 0; i < pr; i++ {
		m.setMatch(int(fl[i]), int(fl[i^1]))
	}
	m.setMatch(xr, v)
	// Rotate left by pr: xr becomes the base.
	reverseInt32(fl[:pr])
	reverseInt32(fl[pr:])
	reverseInt32(fl)
}

func (m *blossom) augment(u, v int) {
	for {
		xnv := int(m.st[m.match[u]])
		m.setMatch(u, v)
		if xnv == 0 {
			return
		}
		m.setMatch(xnv, int(m.st[m.pa[xnv]]))
		u, v = int(m.st[m.pa[xnv]]), xnv
	}
}

// lca walks up both alternating trees and returns their common
// ancestor, or 0 when u and v hang from different roots.
func (m *blossom) lca(u, v int) int {
	m.stamp++
	t := m.stamp
	for u != 0 || v != 0 {
		if u != 0 {
			if m.vis[u] == t {
				return u
			}
			m.vis[u] = t
			u = int(m.st[m.match[u]])
			if u != 0 {
				u = int(m.st[m.pa[u]])
			}
		}
		u, v = v, u
	}
	return 0
}

// addBlossom shrinks the odd cycle lca … u – v … lca into a new outer
// blossom and recomputes its best edges.
func (m *blossom) addBlossom(u, lca, v int) {
	b := m.n + 1
	for b <= m.nx && m.st[b] != 0 {
		b++
	}
	if b > m.nx {
		m.nx++
	}
	m.lab[b] = 0
	m.label[b] = 0
	m.match[b] = m.match[lca]
	base := b * m.stride
	fl := m.flower[base : base+m.stride]
	k := 0
	fl[k] = int32(lca)
	k++
	for x := u; x != lca; {
		y := int(m.st[m.match[x]])
		fl[k], fl[k+1] = int32(x), int32(y)
		k += 2
		m.qPush(y)
		x = int(m.st[m.pa[y]])
	}
	reverseInt32(fl[1:k])
	for x := v; x != lca; {
		y := int(m.st[m.match[x]])
		fl[k], fl[k+1] = int32(x), int32(y)
		k += 2
		m.qPush(y)
		x = int(m.st[m.pa[y]])
	}
	m.flen[b] = int32(k)
	m.setSt(b, b)
	for x := 1; x <= m.nx; x++ {
		m.ew[base+x] = 0
		m.ew[x*m.stride+b] = 0
	}
	for x := 1; x <= m.n; x++ {
		m.from[base+x] = 0
	}
	for i := 0; i < k; i++ {
		xs := int(fl[i])
		xrow := xs * m.stride
		for x := 1; x <= m.nx; x++ {
			if m.ew[xrow+x] > 0 && (m.ew[base+x] == 0 || m.slackOf(xrow+x) < m.slackOf(base+x)) {
				m.eu[base+x], m.ev[base+x], m.ew[base+x] = m.eu[xrow+x], m.ev[xrow+x], m.ew[xrow+x]
				bx, xx := x*m.stride+b, x*m.stride+xs
				m.eu[bx], m.ev[bx], m.ew[bx] = m.eu[xx], m.ev[xx], m.ew[xx]
			}
		}
		for x := 1; x <= m.n; x++ {
			if m.from[xrow+x] != 0 {
				m.from[base+x] = int32(xs)
			}
		}
	}
	m.setSlack(b)
}

// expandBlossom dissolves inner blossom b once its dual reaches zero,
// relabeling the even path from its entry child to its base.
func (m *blossom) expandBlossom(b int) {
	fl := m.children(b)
	for _, x := range fl {
		m.setSt(int(x), int(x))
	}
	xr := int(m.from[b*m.stride+int(m.eu[b*m.stride+int(m.pa[b])])])
	pr := m.evenPos(b, xr)
	for i := 0; i < pr; i += 2 {
		xs, xns := int(fl[i]), int(fl[i+1])
		m.pa[xs] = m.eu[xns*m.stride+xs]
		m.label[xs] = 1
		m.label[xns] = 0
		m.slack[xs] = 0
		m.setSlack(xns)
		m.qPush(xns)
	}
	m.label[xr] = 1
	m.pa[xr] = m.pa[b]
	for i := pr + 1; i < len(fl); i++ {
		xs := int(fl[i])
		m.label[xs] = -1
		m.setSlack(xs)
	}
	m.st[b] = 0
}

// onTightEdge grows the forest along the tight edge at matrix index e;
// it reports true when the edge completed an augmenting path.
func (m *blossom) onTightEdge(e int) bool {
	u, v := int(m.st[m.eu[e]]), int(m.st[m.ev[e]])
	switch m.label[v] {
	case -1:
		m.pa[v] = m.eu[e]
		m.label[v] = 1
		nu := int(m.st[m.match[v]])
		m.slack[v] = 0
		m.slack[nu] = 0
		m.label[nu] = 0
		m.qPush(nu)
	case 0:
		lca := m.lca(u, v)
		if lca == 0 {
			m.augment(u, v)
			m.augment(v, u)
			return true
		}
		m.addBlossom(u, lca, v)
	}
	return false
}

// augmentOnce runs one stage: it grows alternating trees from every free
// node, adjusting duals, until it augments the matching (true) or the
// duals prove no augmentation can add weight (false).
func (m *blossom) augmentOnce() bool {
	for x := 1; x <= m.nx; x++ {
		m.label[x] = -1
		m.slack[x] = 0
	}
	m.qh, m.qt = 0, 0
	for x := 1; x <= m.nx; x++ {
		if int(m.st[x]) == x && m.match[x] == 0 {
			m.pa[x] = 0
			m.label[x] = 0
			m.qPush(x)
		}
	}
	if m.qt == 0 {
		return false
	}
	for {
		for m.qh < m.qt {
			u := int(m.q[m.qh])
			m.qh++
			if m.label[m.st[u]] == 1 {
				continue
			}
			row := u * m.stride
			for v := 1; v <= m.n; v++ {
				if m.ew[row+v] > 0 && m.st[u] != m.st[v] {
					if m.slackOf(row+v) == 0 {
						if m.onTightEdge(row + v) {
							return true
						}
					} else {
						m.updateSlack(u, int(m.st[v]))
					}
				}
			}
		}
		d := int32(math.MaxInt32)
		for b := m.n + 1; b <= m.nx; b++ {
			if int(m.st[b]) == b && m.label[b] == 1 && m.lab[b]/2 < d {
				d = m.lab[b] / 2
			}
		}
		for x := 1; x <= m.nx; x++ {
			if int(m.st[x]) != x || m.slack[x] == 0 {
				continue
			}
			s := m.slackOf(int(m.slack[x])*m.stride + x)
			switch m.label[x] {
			case -1:
				if s < d {
					d = s
				}
			case 0:
				if s/2 < d {
					d = s / 2
				}
			}
		}
		for u := 1; u <= m.n; u++ {
			switch m.label[m.st[u]] {
			case 0:
				if m.lab[u] <= d {
					return false
				}
				m.lab[u] -= d
			case 1:
				m.lab[u] += d
			}
		}
		for b := m.n + 1; b <= m.nx; b++ {
			if int(m.st[b]) != b {
				continue
			}
			switch m.label[b] {
			case 0:
				m.lab[b] += 2 * d
			case 1:
				m.lab[b] -= 2 * d
			}
		}
		m.qh, m.qt = 0, 0
		for x := 1; x <= m.nx; x++ {
			if int(m.st[x]) != x || m.slack[x] == 0 || int(m.st[m.slack[x]]) == x {
				continue
			}
			if e := int(m.slack[x])*m.stride + x; m.slackOf(e) == 0 && m.onTightEdge(e) {
				return true
			}
		}
		for b := m.n + 1; b <= m.nx; b++ {
			if int(m.st[b]) == b && m.label[b] == 1 && m.lab[b] == 0 {
				m.expandBlossom(b)
			}
		}
	}
}
