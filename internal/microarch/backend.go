// Package microarch implements the fault-tolerant quantum control
// processor of the paper's Fig. 6 — QID, PDU, PIU, PSU, TCU, EDU, PFU and
// LMU — as cycle-accounted transaction models, together with the noisy
// quantum backend they control.
//
// The backend keeps three layers of state:
//
//   - an ideal stabilizer tableau over the data qubits of mapped patches,
//     advanced only by logical-product measurements and resets (the
//     lattice-surgery entangling semantics; see DESIGN.md for why this
//     substitution preserves behaviour);
//   - the truth error frame (errFrame): Pauli errors injected by the noise
//     model each ESM round;
//   - the estimate frame (pfFrame): the corrections the error decode unit
//     derives from syndromes, held by the Pauli frame unit.
//
// A logical measurement's physical outcome is the tableau outcome XOR the
// truth frame's anticommutation with the measured string; the logical
// measure unit then applies the estimate frame. When decoding succeeds the
// two flips cancel modulo stabilizers, exactly as in hardware.
package microarch

import (
	"fmt"

	"xqsim/internal/decoder"
	"xqsim/internal/ftqc"
	"xqsim/internal/noise"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
	"xqsim/internal/surface"
)

// Backend is the noisy quantum substrate under the control processor.
type Backend struct {
	Layout *surface.PPRLayout
	Code   surface.Code //xqlint:persistent code geometry, fixed at construction

	// tab covers, for each logical-qubit block (nLQ+2 of them), the cross
	// of the canonical logical-Z and logical-X supports (tabBlock = 2d-1
	// sites per block). The remaining sites of a block are only ever reset
	// or Hadamard-ed — never entangled and never part of a measured
	// product — so they cannot influence any outcome and are not tracked.
	// nil in scaling mode, where only error frames and syndromes are
	// simulated.
	tab *stab.Tableau
	// tabBlock is the tracked sites per block; tabOff maps a compact
	// tableau index (mod tabBlock) to its patch-local site offset
	// (row*d+col); tabIdx is the inverse (-1 for untracked sites).
	tabBlock int   //xqlint:persistent compact-tableau geometry, derived from the code distance
	tabOff   []int //xqlint:persistent compact-tableau geometry, derived from the code distance
	tabIdx   []int //xqlint:persistent compact-tableau geometry, derived from the code distance

	// errFrame and pfFrame cover the data qubits of every patch
	// (numPatches * d^2), indexed patch*d*d + row*d + col.
	errFrame pauli.Frame
	pfFrame  pauli.Frame

	dataNoise *noise.Model
	measNoise *noise.Model

	stabs []surface.Stabilizer //xqlint:persistent per-patch stabilizer template, fixed at construction
	// condStabs are the seam boundary checks that activate when a side
	// becomes a Z&X merge seam (surface.ConditionalStabilizers).
	condStabs []surface.ConditionalStabilizer //xqlint:persistent seam-check templates, fixed at construction
	// stabDataIdx / condDataIdx are the stabilizer supports flattened to
	// frame offsets (row*d+col), precomputed so the per-round parity scan
	// avoids re-deriving indices for every check of every patch.
	stabDataIdx [][]int //xqlint:persistent precomputed support offsets, fixed at construction
	condDataIdx [][]int //xqlint:persistent precomputed support offsets, fixed at construction

	// Reusable decode state: syndromes are bit-packed per window and the
	// decoder's scratch buffers persist across windows, keeping the
	// simulate->decode inner loop allocation-free.
	synBM  *decoder.SyndromeBitmap //xqlint:persistent decode scratch, rebuilt per window
	decSc  decoder.Scratch         //xqlint:persistent decode scratch, overwritten per decode
	decRes decoder.Result          //xqlint:persistent decode scratch, overwritten per decode
	// dec, when set, replaces the direct DecodePatchInto call with a
	// pluggable decode backend whose modeled cycle cost FinishWindow
	// reports in WindowDecode.DecoderCycles. nil keeps the exact matcher
	// on the historical zero-cost path (the pipeline then prices the
	// window purely from DecodeWindowCycles).
	dec decoder.Backend //xqlint:persistent configured decode backend, not shot state

	// synActive marks patches with a live syndrome baseline; the three
	// per-patch slabs below are allocated once for every lattice position
	// and zeroed on (re)activation, so the round loop never allocates.
	synActive []bool
	// prevSyn holds the previous round's syndrome per active patch,
	// indexed by stabilizer template position (regular checks first,
	// then conditional seam checks).
	prevSyn [][]bool //xqlint:persistent re-zeroed on patch activation (Reset clears synActive)
	// eventAcc accumulates detection-event parity over the current
	// decode window.
	eventAcc [][]bool //xqlint:persistent re-zeroed on patch activation (Reset clears synActive)
	// condWasActive tracks seam-check liveness so a check switching on
	// mid-merge re-baselines instead of firing a stale event.
	condWasActive [][]bool //xqlint:persistent re-zeroed on patch activation (Reset clears synActive)
	// Quiet-round fast path: at realistic error rates almost every
	// patch-round has no new data errors, no measurement-error hit, and an
	// unchanged check set, in which case the syndrome scan is a provable
	// no-op and the round costs O(1) per patch (a bulk countdown advance
	// consuming exactly the trials the per-check scan would).
	//
	// chkSig[patch] is the dynamic-state signature the per-patch caches
	// were computed under; chkList[patch] the resolved active-check list at
	// that signature (shared across patches via chkLists, keyed by
	// signature — the templates are patch-independent). cleanPrev[patch]
	// records that prevSyn equals the noise-free parity for every active
	// check (no lingering measurement flip to resolve); frameDirty[patch]
	// that errFrame changed since the last scan.
	chkSig     []uint32
	chkEpoch   []uint64
	chkList    []*checkList          //xqlint:persistent stale entries are unreachable: Reset invalidates every chkSig
	chkLists   map[uint32]*checkList //xqlint:persistent memoized by signature, deliberately survives Reset
	cleanPrev  []bool
	frameDirty []bool
	// eventCount[patch] is the number of pending detection events in
	// eventAcc; most windows end with zero, letting FinishWindow skip the
	// per-basis scans entirely.
	eventCount []int

	// Reusable measurement scratch (MeasureProductDetail's operator
	// strings) and noise-site buffer; both grow to their steady-state
	// capacity within one shot and are reused thereafter.
	mTqs    []int         //xqlint:persistent reusable scratch, overwritten before each use
	mTops   []pauli.Pauli //xqlint:persistent reusable scratch, overwritten before each use
	mFqs    []int         //xqlint:persistent reusable scratch, overwritten before each use
	mFops   []pauli.Pauli //xqlint:persistent reusable scratch, overwritten before each use
	siteBuf []int         //xqlint:persistent reusable scratch, overwritten before each use
	// logicalZSup/logicalXSup cache the canonical logical operator
	// supports (they depend only on the code distance).
	logicalZSup []surface.Coord //xqlint:persistent derived from the code distance only
	logicalXSup []surface.Coord //xqlint:persistent derived from the code distance only
	// tabVirgin[lq] records that lq's tableau block has not been touched
	// since it was last known to be |0...0> (fresh tableau or a completed
	// PrepareZero). Resetting a virgin block is an exact no-op — every
	// per-qubit Z measurement is deterministic-false and draws no
	// randomness — so PrepareZero skips the O(d^2 * n) scan entirely.
	// Nil in scaling mode (no tableau).
	tabVirgin []bool
	// wdMatchesZ/wdMatchesX back the match slices of the WindowDecode
	// FinishWindow returns; they are valid until the next FinishWindow.
	wdMatchesZ []decoder.Match //xqlint:persistent result backing, overwritten by the next FinishWindow
	wdMatchesX []decoder.Match //xqlint:persistent result backing, overwritten by the next FinishWindow

	// dropNextRound marks the next syndrome round's detection events as
	// lost to a fault (buffer overflow or cross-temperature link loss):
	// the syndrome state still advances, but the events never reach the
	// EDU, so the errors they witnessed stay uncorrected.
	dropNextRound bool

	// stats
	RoundsRun      int
	LogicalRejects int // decode windows leaving residual logical flips (diagnostic)
}

// NewBackend builds the substrate for a layout. functional enables the
// stabilizer tableau (required for logical outcomes; scaling sweeps turn
// it off). p is the physical error rate applied to data qubits per round
// and to syndrome measurements.
func NewBackend(layout *surface.PPRLayout, p float64, seed int64, functional bool) *Backend {
	d := layout.Code.D
	b := &Backend{
		Layout:    layout,
		Code:      layout.Code,
		errFrame:  pauli.NewFrame(layout.NumPatches() * d * d),
		pfFrame:   pauli.NewFrame(layout.NumPatches() * d * d),
		dataNoise: noise.NewModel(p, seed),
		measNoise: noise.NewModel(p, seed+1),
		stabs:     layout.Code.Stabilizers(),
		condStabs: layout.Code.ConditionalStabilizers(),
		siteBuf:   make([]int, 0, d*d),
	}
	b.logicalZSup = b.Code.LogicalZ()
	b.logicalXSup = b.Code.LogicalX()
	b.tabIdx = make([]int, d*d)
	for i := range b.tabIdx {
		b.tabIdx[i] = -1
	}
	for _, sup := range [2][]surface.Coord{b.logicalZSup, b.logicalXSup} {
		for _, c := range sup {
			if off := c.Row*d + c.Col; b.tabIdx[off] < 0 {
				b.tabIdx[off] = len(b.tabOff)
				b.tabOff = append(b.tabOff, off)
			}
		}
	}
	b.tabBlock = len(b.tabOff)
	nPatches := layout.NumPatches()
	total := len(b.stabs) + len(b.condStabs)
	b.synActive = make([]bool, nPatches)
	b.prevSyn = make([][]bool, nPatches)
	b.eventAcc = make([][]bool, nPatches)
	b.condWasActive = make([][]bool, nPatches)
	prevSlab := make([]bool, nPatches*total)
	accSlab := make([]bool, nPatches*total)
	condSlab := make([]bool, nPatches*len(b.condStabs))
	for i := 0; i < nPatches; i++ {
		b.prevSyn[i] = prevSlab[i*total : (i+1)*total : (i+1)*total]
		b.eventAcc[i] = accSlab[i*total : (i+1)*total : (i+1)*total]
		b.condWasActive[i] = condSlab[i*len(b.condStabs) : (i+1)*len(b.condStabs) : (i+1)*len(b.condStabs)]
	}
	b.chkSig = make([]uint32, nPatches)
	for i := range b.chkSig {
		b.chkSig[i] = sigInvalid
	}
	b.chkEpoch = make([]uint64, nPatches)
	b.chkList = make([]*checkList, nPatches)
	b.chkLists = make(map[uint32]*checkList)
	b.cleanPrev = make([]bool, nPatches)
	b.frameDirty = make([]bool, nPatches)
	b.eventCount = make([]int, nPatches)
	b.synBM = decoder.NewSyndromeBitmap(layout.Code)
	b.stabDataIdx = flattenSupports(b.stabs, d)
	cond := make([]surface.Stabilizer, len(b.condStabs))
	for i, cs := range b.condStabs {
		cond[i] = cs.Stabilizer
	}
	b.condDataIdx = flattenSupports(cond, d)
	if functional {
		b.tab = stab.New((layout.NLQ+2)*b.tabBlock, seed+2)
		b.tabVirgin = make([]bool, layout.NLQ+2)
		for i := range b.tabVirgin {
			b.tabVirgin[i] = true
		}
	}
	return b
}

// flattenSupports precomputes each stabilizer's data-qubit frame offsets.
func flattenSupports(stabs []surface.Stabilizer, d int) [][]int {
	n := 0
	for _, st := range stabs {
		n += len(st.Data)
	}
	out := make([][]int, len(stabs))
	backing := make([]int, n)
	for i, st := range stabs {
		idx := backing[:len(st.Data):len(st.Data)]
		backing = backing[len(st.Data):]
		for j, q := range st.Data {
			idx[j] = q.Row*d + q.Col
		}
		out[i] = idx
	}
	return out
}

// NumLQ implements ftqc.Machine: data qubits plus the two resource slots.
func (b *Backend) NumLQ() int { return b.Layout.NLQ + 2 }

// blockIndex maps logical qubit lq's local data coordinate to its tableau
// index. Only canonical logical-operator sites are tracked.
func (b *Backend) blockIndex(lq int, q surface.Coord) int {
	k := b.tabIdx[q.Row*b.Code.D+q.Col]
	if k < 0 {
		//xqlint:ignore nopanic unreachable guard: callers index with coords from the cached logical supports
		panic("microarch: coordinate outside the tracked logical supports")
	}
	return lq*b.tabBlock + k
}

// frameIndex maps a patch-local data coordinate to the frame index.
func (b *Backend) frameIndex(patch int, q surface.Coord) int {
	d := b.Code.D
	return patch*d*d + q.Row*d + q.Col
}

// patchOf resolves the lattice patch holding logical qubit lq, mapping the
// resource qubits to their reserved positions on demand.
func (b *Backend) patchOf(lq int) int {
	if idx, ok := b.Layout.PatchOfLQ(lq); ok {
		return idx
	}
	switch lq {
	case b.Layout.AncillaLQ:
		b.Layout.MapLogical(lq, b.Layout.AncillaP, surface.InitZero)
		return b.Layout.AncillaP
	case b.Layout.MagicLQ:
		b.Layout.MapLogical(lq, b.Layout.MagicP, surface.InitMagic)
		return b.Layout.MagicP
	}
	//xqlint:ignore nopanic unreachable guard: execLQI maps every LQ before any unit touches it
	panic(fmt.Sprintf("microarch: logical qubit %d is not mapped", lq))
}

// resetPatchFrames clears both frames on a patch (physical re-preparation
// destroys accumulated errors and invalidates old corrections).
func (b *Backend) resetPatchFrames(patch int) {
	d := b.Code.D
	base := patch * d * d
	for i := 0; i < d*d; i++ {
		b.errFrame.Ops[base+i] = pauli.I
		b.pfFrame.Ops[base+i] = pauli.I
	}
	b.frameDirty[patch] = true
}

// activatePatch (re)sets the syndrome baseline so no stale detection
// events fire on the first round after (re)initialization.
func (b *Backend) activatePatch(patch int) {
	b.synActive[patch] = true
	clearBools(b.prevSyn[patch])
	clearBools(b.eventAcc[patch])
	clearBools(b.condWasActive[patch])
	b.cleanPrev[patch] = false // force a full scan to re-establish prev
	b.eventCount[patch] = 0
}

// sigInvalid never matches dynSig's packing, forcing a recount.
const sigInvalid = ^uint32(0)

// dynSig packs the dynamic fields check activity depends on into a
// comparable word, so a round can detect "check set unchanged" without
// re-evaluating the mask-generator rules per check.
func dynSig(dyn surface.Dynamic) uint32 {
	s := uint32(0)
	if dyn.ESMOn {
		s |= 1
	}
	if dyn.MergeOn {
		s |= 2
	}
	for i, e := range dyn.ESM {
		s |= uint32(e) << (4 + 4*uint(i))
	}
	return s
}

// checkList is the set of checks active under one dynamic signature:
// template indices of the live regular and seam stabilizers, in template
// order (the order the legacy full scan measured them in, so the
// measurement-noise stream is unchanged).
type checkList struct {
	regular []int32
	cond    []int32
	count   int
}

// checksFor resolves (building and memoizing on first sight) the active
// check list of a dynamic state. Lists depend only on the stabilizer
// templates and the signature, so they are shared across patches and
// survive Reset.
func (b *Backend) checksFor(sig uint32, dyn surface.Dynamic) *checkList {
	if cl, ok := b.chkLists[sig]; ok {
		return cl
	}
	cl := &checkList{}
	for si, st := range b.stabs {
		if surface.StabilizerActive(b.Code, st, dyn) {
			cl.regular = append(cl.regular, int32(si))
		}
	}
	for ci, cs := range b.condStabs {
		if surface.ConditionalActive(cs, dyn) {
			cl.cond = append(cl.cond, int32(ci))
		}
	}
	cl.count = len(cl.regular) + len(cl.cond)
	b.chkLists[sig] = cl
	return cl
}

func clearBools(s []bool) {
	for i := range s {
		s[i] = false
	}
}

// Reset restores the backend to the state NewBackend(layout, p, seed,
// functional) would return — layout re-homed, frames cleared, noise and
// tableau streams rewound to the new seed — without reallocating. It is
// the shot-reuse hook: a reset backend reproduces a fresh backend's run
// bit-for-bit for the same seed, which the shot-equivalence tests pin.
func (b *Backend) Reset(seed int64) {
	b.Layout.Reset()
	for i := range b.errFrame.Ops {
		b.errFrame.Ops[i] = pauli.I
		b.pfFrame.Ops[i] = pauli.I
	}
	b.dataNoise.Reseed(seed)
	b.measNoise.Reseed(seed + 1)
	if b.tab != nil {
		b.tab.Reinit(seed + 2)
		for i := range b.tabVirgin {
			b.tabVirgin[i] = true
		}
	}
	clearBools(b.synActive)
	clearBools(b.cleanPrev)
	clearBools(b.frameDirty)
	for i := range b.chkSig {
		b.chkSig[i] = sigInvalid
		b.chkEpoch[i] = 0 // the lattice epoch starts at 1 and only grows
		b.eventCount[i] = 0
	}
	b.dropNextRound = false
	b.RoundsRun = 0
	b.LogicalRejects = 0
}

// SetPhysError retargets both noise models to a new per-site error rate
// (sweep grids reuse one backend across physical-error cells; pair with
// Reset for reproducible streams).
func (b *Backend) SetPhysError(p float64) {
	b.dataNoise.SetProb(p)
	b.measNoise.SetProb(p)
}

// PrepareZero implements ftqc.Machine: initialize logical qubit lq to |0>.
func (b *Backend) PrepareZero(lq int) {
	patch := b.patchOf(lq)
	if b.tab != nil && !b.tabVirgin[lq] {
		for k := 0; k < b.tabBlock; k++ {
			b.tab.Reset(lq*b.tabBlock + k)
		}
	}
	if b.tab != nil {
		// Either the block was already |0...0> or the resets above just put
		// it there (and disentangled it from everything else).
		b.tabVirgin[lq] = true
	}
	b.resetPatchFrames(patch)
	b.Layout.EnableESM(patch)
	b.activatePatch(patch)
}

// PreparePlus initializes logical qubit lq to |+>.
func (b *Backend) PreparePlus(lq int) {
	b.PrepareZero(lq)
	if b.tab != nil {
		for k := 0; k < b.tabBlock; k++ {
			b.tab.H(lq*b.tabBlock + k)
		}
		b.tabVirgin[lq] = false
	}
}

// PrepareResource implements ftqc.Machine. Only the stabilizer resource
// (AnglePi4, the state |+i>) is preparable in functional mode; preparing
// the pi/8 magic state requires the documented stabilizer substitution.
// In scaling mode (no tableau) both are accepted, since only control
// traffic is simulated.
func (b *Backend) PrepareResource(lq int, a ftqc.Angle) {
	b.PrepareZero(lq)
	if b.tab == nil {
		return
	}
	if a != ftqc.AnglePi4 {
		//xqlint:ignore nopanic API-misuse guard: functional mode requires SubstituteStabilizer, documented on Compile
		panic("microarch: pi/8 magic states are not stabilizer-preparable; run the circuit through SubstituteStabilizer for functional validation")
	}
	// |+i> = +1 eigenstate of logical Y: measure Y_L on |0_L> and fix the
	// sign with a logical Z when the -1 branch is drawn.
	b.tabVirgin[lq] = false
	qs, ops := b.appendLogicalOps(b.mTqs[:0], b.mTops[:0], lq, pauli.Y)
	b.mTqs, b.mTops = qs, ops
	out, _ := b.tab.MeasureProduct(qs, ops)
	if out {
		zqs, zops := b.appendLogicalOps(b.mTqs[:0], b.mTops[:0], lq, pauli.Z)
		b.mTqs, b.mTops = zqs, zops
		for i, q := range zqs {
			b.tab.ApplyPauli(q, zops[i])
		}
	}
}

// logicalOps returns the canonical physical operator string of logical
// X/Y/Z on qubit lq as tableau indices and Pauli factors.
func (b *Backend) logicalOps(lq int, basis pauli.Pauli) ([]int, []pauli.Pauli) {
	return b.appendLogicalOps(nil, nil, lq, basis)
}

// appendLogicalOps appends lq's logical operator string to (qs, ops) and
// returns the extended slices, deduplicating only among the entries it
// appends (overlapping Z/X supports of a Y string merge via Pauli
// multiplication, exactly as logicalOps always did). Hot paths pass
// reusable buffers so per-measurement string building is allocation-free.
func (b *Backend) appendLogicalOps(qs []int, ops []pauli.Pauli, lq int, basis pauli.Pauli) ([]int, []pauli.Pauli) {
	start := len(qs)
	add := func(coords []surface.Coord, p pauli.Pauli) {
		for _, c := range coords {
			idx := b.blockIndex(lq, c)
			found := false
			for i := start; i < len(qs); i++ {
				if qs[i] == idx {
					ops[i] = ops[i].Mul(p)
					found = true
					break
				}
			}
			if !found {
				qs = append(qs, idx)
				ops = append(ops, p)
			}
		}
	}
	switch basis {
	case pauli.I:
		// Identity basis: empty product, measured trivially below. No
		// caller requests it; kept explicit for ISA exhaustiveness.
	case pauli.Z:
		add(b.logicalZSup, pauli.Z)
	case pauli.X:
		add(b.logicalXSup, pauli.X)
	case pauli.Y:
		add(b.logicalZSup, pauli.Z)
		add(b.logicalXSup, pauli.X)
	}
	return qs, ops
}

// logicalFrameString returns the same operator string in frame (patch)
// indexing, for error-flip computation.
func (b *Backend) logicalFrameString(lq int, basis pauli.Pauli) ([]int, []pauli.Pauli) {
	patch := b.patchOf(lq)
	qs, ops := b.logicalOps(lq, basis)
	d := b.Code.D
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = patch*d*d + b.tabOff[q%b.tabBlock]
	}
	return out, ops
}

// frameFlip computes whether a frame anticommutes with the operator
// string (qs in frame indexing).
func frameFlip(f pauli.Frame, qs []int, ops []pauli.Pauli) bool {
	flips := 0
	for i, q := range qs {
		if !f.Ops[q].Commutes(ops[i]) {
			flips++
		}
	}
	return flips%2 == 1
}

// MeasureProduct implements ftqc.Machine: measure a Hermitian Pauli
// product over the machine's logical qubits. The returned bit is the
// *corrected* outcome: tableau ideal XOR truth-frame flip XOR
// estimate-frame correction (the LMU's virtual error correction). Raw and
// correction parts are also available via MeasureProductDetail.
func (b *Backend) MeasureProduct(pr pauli.Product) bool {
	out, _, _ := b.MeasureProductDetail(pr, nil)
	return out
}

// MeasureProductDetail measures the logical product and additionally
// reports the uncorrected physical outcome and the estimate-frame
// correction bit. extraFramePatches lists intermediate patches whose
// pass-through error strings also gate the outcome (merged PPMs).
func (b *Backend) MeasureProductDetail(pr pauli.Product, extraFramePatches []int) (corrected, raw, pfFlip bool) {
	if pr.Len() != b.NumLQ() {
		//xqlint:ignore nopanic unreachable guard: the pipeline builds products over exactly NumLQ qubits
		panic("microarch: product width mismatch")
	}
	d := b.Code.D
	tqs, tops := b.mTqs[:0], b.mTops[:0]
	fqs, fops := b.mFqs[:0], b.mFops[:0]
	for lq, p := range pr.Ops {
		if p == pauli.I {
			continue
		}
		if b.tab != nil {
			b.tabVirgin[lq] = false
		}
		start := len(tqs)
		tqs, tops = b.appendLogicalOps(tqs, tops, lq, p)
		// The frame string is the same operator string re-indexed onto
		// lq's patch (logicalFrameString, inlined over the scratch).
		patch := b.patchOf(lq)
		for i := start; i < len(tqs); i++ {
			fqs = append(fqs, patch*d*d+b.tabOff[tqs[i]%b.tabBlock])
			fops = append(fops, tops[i])
		}
	}
	// Pass-through sensitivity: a Z-type string through each intermediate
	// routing patch of the merge (the correlation surface crossing it).
	for _, patch := range extraFramePatches {
		col := d / 2
		for row := 0; row < d; row++ {
			fqs = append(fqs, b.frameIndex(patch, surface.Coord{Row: row, Col: col}))
			fops = append(fops, pauli.Z)
		}
	}
	b.mTqs, b.mTops, b.mFqs, b.mFops = tqs, tops, fqs, fops
	ideal := false
	if b.tab != nil {
		ideal, _ = b.tab.MeasureProduct(tqs, tops)
	}
	raw = ideal != frameFlip(b.errFrame, fqs, fops)
	pfFlip = frameFlip(b.pfFrame, fqs, fops)
	return raw != pfFlip, raw, pfFlip
}

// InjectRoundNoise applies one round of Pauli noise to the data qubits of
// every ESM-active patch.
func (b *Backend) InjectRoundNoise() {
	d := b.Code.D
	for _, patch := range b.Layout.ActiveESMPatches() {
		base := patch * d * d
		b.siteBuf = b.dataNoise.AppendSites(b.siteBuf[:0], d*d)
		for _, i := range b.siteBuf {
			b.errFrame.Ops[base+i] ^= pauli.X
			b.frameDirty[patch] = true
		}
		b.siteBuf = b.dataNoise.AppendSites(b.siteBuf[:0], d*d)
		for _, i := range b.siteBuf {
			b.errFrame.Ops[base+i] ^= pauli.Z
			b.frameDirty[patch] = true
		}
	}
}

// MeasureSyndromes runs one round of syndrome extraction over the active
// patches, accumulating detection events into the current window. It
// returns the number of ancilla measurements taken (for traffic
// accounting).
func (b *Backend) MeasureSyndromes() int { return b.MeasureSyndromesRound(false) }

// DropNextRoundEvents marks the next syndrome round as lost to a fault:
// its measurements happen (the physical schedule is unaffected) but the
// detection events they would contribute are discarded, exactly as if
// the syndrome payload never reached the error decode unit. The fault
// injector (internal/faults) uses this to model syndrome-buffer
// drop-oldest overflow and link-retry exhaustion.
func (b *Backend) DropNextRoundEvents() { b.dropNextRound = true }

// MeasureSyndromesRound runs one syndrome round; final marks the last
// round of a decode window, whose measurement outcomes are cross-checked
// against the transversal data-qubit readout that follows in lattice
// surgery and are therefore modeled noise-free. Without this, a
// measurement flip in the window's last round masquerades as a data error
// at the decode boundary and corrupts logical readouts at a rate the code
// distance cannot suppress (the standard phenomenological-model boundary
// condition).
func (b *Backend) MeasureSyndromesRound(final bool) int {
	d := b.Code.D
	measured := 0
	dropped := b.dropNextRound
	b.dropNextRound = false
	epoch := b.Layout.ESMEpoch()
	for _, patch := range b.Layout.ActiveESMPatches() {
		if !b.synActive[patch] {
			b.activatePatch(patch)
		}
		if b.chkEpoch[patch] != epoch {
			b.chkEpoch[patch] = epoch
			dyn := b.Layout.Patch(patch).Dynamic
			if sig := dynSig(dyn); sig != b.chkSig[patch] {
				b.chkSig[patch] = sig
				b.chkList[patch] = b.checksFor(sig, dyn)
				b.cleanPrev[patch] = false // the active set may have changed
				// Seam checks that just went inactive re-baseline on their
				// next activation (the legacy full scan cleared these every
				// round; clearing on the transition is equivalent because
				// wasActive is only read while active).
				was := b.condWasActive[patch]
				j := 0
				for ci := range was {
					if j < len(b.chkList[patch].cond) && int(b.chkList[patch].cond[j]) == ci {
						j++
						continue
					}
					was[ci] = false
				}
			}
		}
		cl := b.chkList[patch]
		// Quiet-round fast path: prev equals the noise-free parity, the
		// frame has not changed, and the check set is the same, so the scan
		// below cannot fire an event or change prev. All that remains is
		// consuming the round's measurement-noise trials; TryAdvance does
		// that in bulk iff none hits, drawing the exact per-check stream.
		if b.cleanPrev[patch] && !b.frameDirty[patch] {
			if final || b.measNoise.TryAdvance(cl.count) {
				measured += cl.count
				continue
			}
		}
		prev := b.prevSyn[patch]
		acc := b.eventAcc[patch]
		base := patch * d * d
		measHit := false
		parityOf := func(basis pauli.Pauli, idx []int) bool {
			par := false
			for _, q := range idx {
				rec := b.errFrame.Ops[base+q]
				if !rec.Commutes(basis) {
					par = !par
				}
			}
			if !final && b.measNoise.Hit() {
				par = !par
				measHit = true
			}
			return par
		}
		for _, si32 := range cl.regular {
			si := int(si32)
			par := parityOf(b.stabs[si].Basis, b.stabDataIdx[si])
			if par != prev[si] && !dropped {
				acc[si] = !acc[si]
				if acc[si] {
					b.eventCount[patch]++
				} else {
					b.eventCount[patch]--
				}
			}
			prev[si] = par
			measured++
		}
		// Seam checks: only while their side is a Z&X seam; re-baseline
		// on activation.
		wasActive := b.condWasActive[patch]
		for _, ci32 := range cl.cond {
			ci := int(ci32)
			si := len(b.stabs) + ci
			par := parityOf(b.condStabs[ci].Basis, b.condDataIdx[ci])
			if wasActive[ci] && par != prev[si] && !dropped {
				acc[si] = !acc[si]
				if acc[si] {
					b.eventCount[patch]++
				} else {
					b.eventCount[patch]--
				}
			}
			prev[si] = par
			wasActive[ci] = true
			measured++
		}
		// prev is now synced to the measured parity: clean unless a
		// measurement flip left it disagreeing with the frame's truth.
		b.cleanPrev[patch] = !measHit
		b.frameDirty[patch] = false
	}
	b.RoundsRun++
	return measured
}

// WindowDecode is the per-window decoding outcome consumed by the EDU
// cycle model. Matches are split per basis because Optimization #1's
// priority-encoder EDU decodes the X- and Z-cell arrays in parallel,
// while the baseline round-robin token chain is shared.
type WindowDecode struct {
	MatchesZ    []decoder.Match // Z-plaquette (X-error) matches
	MatchesX    []decoder.Match // X-plaquette (Z-error) matches
	ActiveCells int             // EDU cells participating (all active ancillas)
	Windows     int             // patch windows processed (patch-sliding slides)
	Syndromes   int             // non-trivial syndrome count
	Flips       int             // identified data-qubit errors
	// DecoderCycles is the pluggable backend's modeled decode cost for
	// the window (0 when no backend is installed); the pipeline charges
	// max(DecodeWindowCycles, DecoderCycles) so a slower backend visibly
	// stretches the EDU critical path.
	DecoderCycles uint64
}

// SetDecoder installs a pluggable decode backend for every subsequent
// FinishWindow. The backend must be private to this Backend (callers
// Clone before installing); passing nil restores the direct matcher
// path.
func (b *Backend) SetDecoder(dec decoder.Backend) { b.dec = dec }

// Decoder returns the installed decode backend (nil on the direct
// matcher path).
func (b *Backend) Decoder() decoder.Backend { return b.dec }

// Matches returns both bases' matches combined.
func (w WindowDecode) Matches() []decoder.Match {
	out := make([]decoder.Match, 0, len(w.MatchesZ)+len(w.MatchesX))
	out = append(out, w.MatchesZ...)
	out = append(out, w.MatchesX...)
	return out
}

// FinishWindow decodes the accumulated detection events of every active
// patch and folds the identified errors into the estimate frame. The
// event accumulators reset for the next window. The returned value's
// match slices are backed by reusable buffers and stay valid only until
// the next FinishWindow on this backend; callers that retain them across
// windows must copy.
func (b *Backend) FinishWindow() WindowDecode {
	var out WindowDecode
	out.MatchesZ = b.wdMatchesZ[:0]
	out.MatchesX = b.wdMatchesX[:0]
	for _, patch := range b.Layout.ActiveESMPatches() {
		if !b.synActive[patch] {
			continue
		}
		acc := b.eventAcc[patch]
		out.Windows++
		out.ActiveCells += len(b.stabs)
		cl := b.chkList[patch]
		if cl == nil || b.eventCount[patch] == 0 {
			// No syndrome round has run on this patch yet, or the window
			// ended with every accumulator clear; only the window
			// bookkeeping above applies.
			continue
		}
		b.eventCount[patch] = 0 // everything pending is consumed below

		// Seam-check events: counted into the decode load (one short
		// boundary-matched token each — the cross-patch pairing itself is
		// subsumed by the joint logical measurement; see DESIGN.md §5),
		// but they contribute no per-patch corrections. Events can only be
		// pending for checks active during the window's rounds, so the
		// cached active list covers every set accumulator.
		for _, ci32 := range cl.cond {
			ci := int(ci32)
			si := len(b.stabs) + ci
			if !acc[si] {
				continue
			}
			out.Syndromes++
			cs := b.condStabs[ci]
			m := decoder.Match{From: cs.Anc, ToBoundary: true, Steps: 1}
			if cs.Basis == pauli.Z {
				out.MatchesZ = append(out.MatchesZ, m)
			} else {
				out.MatchesX = append(out.MatchesX, m)
			}
			acc[si] = false
		}
		for _, basis := range [2]pauli.Pauli{pauli.Z, pauli.X} {
			// Bit-pack the window's detection events; the ascending scan
			// fills the bitmap in the hardware's row-major cell order.
			b.synBM.Reset()
			nontrivial := 0
			for _, si32 := range cl.regular {
				si := int(si32)
				if st := &b.stabs[si]; st.Basis == basis && acc[si] {
					b.synBM.Set(st.Anc)
					nontrivial++
				}
			}
			if nontrivial == 0 {
				continue
			}
			out.Syndromes += nontrivial
			if b.dec != nil {
				out.DecoderCycles += b.dec.Decode(b.Code, basis, b.synBM, &b.decRes)
			} else {
				decoder.DecodePatchInto(b.Code, basis, b.synBM, &b.decSc, &b.decRes)
			}
			res := &b.decRes
			if basis == pauli.Z {
				out.MatchesZ = append(out.MatchesZ, res.Matches...)
			} else {
				out.MatchesX = append(out.MatchesX, res.Matches...)
			}
			out.Flips += len(res.Flips)
			// Z-type plaquettes identify X errors and vice versa.
			errType := pauli.X
			if basis == pauli.X {
				errType = pauli.Z
			}
			for _, q := range res.Flips {
				b.pfFrame.Ops[b.frameIndex(patch, q)] ^= errType
			}
		}
		for _, si32 := range cl.regular {
			acc[si32] = false
		}
	}
	b.wdMatchesZ = out.MatchesZ
	b.wdMatchesX = out.MatchesX
	return out
}

// InitIntermediates prepares the routing patches of a merge region: fresh
// |+> data qubits (frames cleared) and a fresh syndrome baseline.
func (b *Backend) InitIntermediates(region []int) int {
	count := 0
	for _, patch := range region {
		if b.Layout.Patch(patch).Static.Type != surface.Intermediate {
			continue
		}
		b.resetPatchFrames(patch)
		b.activatePatch(patch)
		count++
	}
	return count
}

// MeasureIntermediates measures out the routing patches after a split,
// clearing their frames and deactivating their windows. It returns the
// number of patches processed.
func (b *Backend) MeasureIntermediates(region []int) int {
	count := 0
	for _, patch := range region {
		if b.Layout.Patch(patch).Static.Type != surface.Intermediate {
			continue
		}
		b.resetPatchFrames(patch)
		b.synActive[patch] = false
		count++
	}
	return count
}

// DiscardLogical releases logical qubit lq's patch (after a destructive
// logical measurement).
func (b *Backend) DiscardLogical(lq int) {
	patch, ok := b.Layout.PatchOfLQ(lq)
	if !ok {
		return
	}
	b.resetPatchFrames(patch)
	b.synActive[patch] = false
	b.Layout.UnmapLogical(lq)
	b.Layout.DisableESM(patch)
}

// InjectLogicalError deterministically applies a physical error chain that
// flips logical basis of qubit lq (for fault-injection tests): a full
// logical operator string written into the truth frame.
func (b *Backend) InjectLogicalError(lq int, basis pauli.Pauli) {
	qs, ops := b.logicalFrameString(lq, basis)
	d := b.Code.D
	for i, q := range qs {
		b.errFrame.Ops[q] ^= ops[i]
		b.frameDirty[q/(d*d)] = true
	}
}
