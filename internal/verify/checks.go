package verify

import (
	"fmt"
	"math"
	"sort"

	"xqsim/internal/decoder"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
	"xqsim/internal/statevec"
	"xqsim/internal/surface"
	"xqsim/internal/xrand"
)

// Failure describes one differential-check failure with everything
// needed to replay it byte-identically: the check name and trial seed
// feed xrand-driven generators that are pure functions of the seed, and
// circuit-shaped cases carry a textual dump (already shrunk).
type Failure struct {
	Check   string
	Seed    int64
	Detail  string
	Circuit string // DumpCircuit form when the case is a circuit; else ""
}

// Error renders the failure with its replay command.
func (f *Failure) Error() string {
	s := fmt.Sprintf("FAIL %s seed=%d: %s\nreplay: xqverify -replay %s:%d", f.Check, f.Seed, f.Detail, f.Check, f.Seed)
	if f.Circuit != "" {
		s += "\ncircuit:\n" + f.Circuit
	}
	return s
}

// simulateTableauSalt is the additive constant SimulateTableau applies to
// derive its noise stream; Lockstep must consume the identical stream.
const simulateTableauSalt = 0x9e3779b9

// Lockstep co-simulates one shot of the circuit on the stabilizer
// tableau and the dense state vector, validating the full quantum state
// after every operation:
//
//   - each of the tableau's n stabilizer generators (sign included) must
//     have state-vector expectation exactly +1 — a stabilizer state is
//     uniquely determined by its signed stabilizer group, so this is a
//     complete state comparison, not a sampled one (it catches phase
//     bugs that never surface in the measurements a random circuit
//     happens to perform);
//   - a measurement the tableau reports deterministic must have
//     state-vector probability exactly 1 for the reported outcome, a
//     random one probability exactly 1/2 (Clifford states admit no other
//     random outcome); the state vector is collapsed along the tableau's
//     outcome, so the two simulators traverse the same trajectory.
//
// Noise channels are sampled from the same xrand stream SimulateTableau
// uses, and the final record is cross-checked against SimulateTableau
// itself, pinning the public API to the co-simulated trajectory.
func Lockstep(c *stab.Circuit, seed int64) error {
	if c.N > oracleMaxQubits {
		return fmt.Errorf("verify: lockstep supports at most %d qubits", oracleMaxQubits)
	}
	t := stab.New(c.N, seed)
	sv := statevec.New(c.N, 0)
	rng := xrand.New(seed + simulateTableauSalt)
	var rec []bool
	measure := func(q int, record bool) error {
		pr := pauli.NewProduct(c.N)
		pr.Ops[q] = pauli.Z
		p0 := sv.MeasureProductProb(pr)
		out, det := t.MeasureZ(q)
		pOut := p0
		if out {
			pOut = 1 - p0
		}
		if det {
			if math.Abs(pOut-1) > 1e-6 {
				return fmt.Errorf("measurement %d on q%d: tableau deterministic outcome=%v but statevec gives p=%.9f", len(rec), q, out, pOut)
			}
		} else if math.Abs(p0-0.5) > 1e-6 {
			return fmt.Errorf("measurement %d on q%d: tableau random outcome but statevec gives p0=%.9f", len(rec), q, p0)
		}
		sv.CollapseProduct(pr, out)
		if record {
			rec = append(rec, out)
		} else if out {
			// Reset semantics: flip the measured |1> back to |0>.
			t.X(q)
			sv.X(q)
		}
		return nil
	}
	for i, op := range c.Ops {
		var err error
		switch op.Kind {
		case stab.OpH:
			t.H(op.A)
			sv.H(op.A)
		case stab.OpS:
			t.S(op.A)
			sv.S(op.A)
		case stab.OpCX:
			t.CX(op.A, op.B)
			sv.CX(op.A, op.B)
		case stab.OpCZ:
			t.CZ(op.A, op.B)
			sv.CZ(op.A, op.B)
		case stab.OpX:
			t.X(op.A)
			sv.X(op.A)
		case stab.OpY:
			t.Y(op.A)
			sv.Y(op.A)
		case stab.OpZ:
			t.Z(op.A)
			sv.Z(op.A)
		case stab.OpMeasureZ:
			err = measure(op.A, true)
		case stab.OpReset:
			err = measure(op.A, false)
		case stab.OpDepolarize1:
			if rng.Float64() < op.P {
				p := pauli.Pauli(1 + rng.Intn(3))
				t.ApplyPauli(op.A, p)
				applyPauliSV(sv, op.A, p)
			}
		case stab.OpFlipX:
			if rng.Float64() < op.P {
				t.X(op.A)
				sv.X(op.A)
			}
		case stab.OpFlipZ:
			if rng.Float64() < op.P {
				t.Z(op.A)
				sv.Z(op.A)
			}
		}
		if err != nil {
			return fmt.Errorf("op %d: %v", i, err)
		}
		for row := 0; row < c.N; row++ {
			pr := t.StabilizerRow(row)
			if e := sv.ExpectProduct(pr); math.Abs(e-1) > 1e-6 {
				return fmt.Errorf("op %d: tableau stabilizer %d = %v has statevec expectation %.9f, want 1", i, row, pr, e)
			}
		}
	}
	if err := t.CheckInvariants(); err != nil {
		return fmt.Errorf("tableau invariants violated after circuit: %v", err)
	}
	api := c.SimulateTableau(seed)
	if len(api) != len(rec) {
		return fmt.Errorf("SimulateTableau returned %d outcomes, lockstep recorded %d", len(api), len(rec))
	}
	for i := range rec {
		if api[i] != rec[i] {
			return fmt.Errorf("SimulateTableau outcome %d = %v diverges from lockstep %v", i, api[i], rec[i])
		}
	}
	return nil
}

func applyPauliSV(sv *statevec.State, q int, p pauli.Pauli) {
	switch p {
	case pauli.I:
		// Identity: no-op.
	case pauli.X:
		sv.X(q)
	case pauli.Y:
		sv.Y(q)
	case pauli.Z:
		sv.Z(q)
	}
}

// CheckLockstep generates one random circuit and co-simulates it. It is
// the suite's cheapest and sharpest probe (~0.1ms per circuit, complete
// state comparison after every op), so depths run it at high volume:
// single-gate phase bugs that reshape only rare gate motifs (e.g. a
// dropped S-gate sign flip, which needs S acting on a Y component) are
// caught with per-circuit probability of a few percent, which volume
// turns into near-certainty.
func CheckLockstep(seed int64, shape CircuitShape) *Failure {
	c := RandomCircuit(seed, shape)
	err := Lockstep(c, seed)
	if err == nil {
		return nil
	}
	c = ShrinkCircuit(c, func(s *stab.Circuit) bool {
		return Lockstep(s, seed) != nil
	})
	err = Lockstep(c, seed)
	return &Failure{Check: "lockstep", Seed: seed, Detail: err.Error(), Circuit: DumpCircuit(c)}
}

// shotSeedSalt decorrelates the per-shot seed stream from the
// circuit-generation seed.
const shotSeedSalt = 0x5851f42d

// checkTableauCircuit validates one explicit circuit: a lockstep shot,
// then a batched chi-square of SimulateTableau records against the exact
// oracle distribution. It is the predicate the shrinker minimizes over.
func checkTableauCircuit(c *stab.Circuit, seed int64, shots int) string {
	if err := Lockstep(c, seed); err != nil {
		return fmt.Sprintf("lockstep: %v", err)
	}
	dist, _, err := RecordDistribution(c)
	if err != nil {
		return fmt.Sprintf("oracle: %v", err)
	}
	shotRng := xrand.New(seed ^ shotSeedSalt)
	counts := make(map[uint64]int)
	for i := 0; i < shots; i++ {
		counts[recordKey(c.SimulateTableau(shotRng.Int63()))]++
	}
	if res := ChiSquare(dist, counts, shots); !res.OK() {
		return fmt.Sprintf("SimulateTableau distribution vs statevec oracle: %s", res)
	}
	return ""
}

// CheckTableau generates a random (possibly noisy) Clifford circuit from
// the seed and validates the tableau simulator against the state-vector
// oracle. A failing circuit is shrunk before reporting.
func CheckTableau(seed int64, shape CircuitShape, shots int) *Failure {
	c := RandomCircuit(seed, shape)
	detail := checkTableauCircuit(c, seed, shots)
	if detail == "" {
		return nil
	}
	c = ShrinkCircuit(c, func(s *stab.Circuit) bool {
		return checkTableauCircuit(s, seed, shots) != ""
	})
	detail = checkTableauCircuit(c, seed, shots)
	return &Failure{Check: "tableau", Seed: seed, Detail: detail, Circuit: DumpCircuit(c)}
}

// checkFrameCircuit validates FrameSampler on one explicit circuit.
//
// The frame sampler fixes one noiseless reference record and XORs in
// noise-induced flips, so its raw output distribution is the flip
// distribution translated by the reference — not the circuit's full
// distribution, which also randomizes the reference over the noiseless
// support S (an affine set over which Clifford randomness is uniform).
// Convolving the sampler's output with the uniform distribution on S
// (sample XOR ref XOR s, s uniform in S) must therefore reproduce the
// exact noisy distribution; that is the identity Stim's frame
// decomposition rests on, and the chi-square below tests it against the
// state-vector oracle.
func checkFrameCircuit(c *stab.Circuit, seed int64, shots int) string {
	dist, _, err := RecordDistribution(c)
	if err != nil {
		return fmt.Sprintf("oracle: %v", err)
	}
	sup, err := NoiselessSupport(c)
	if err != nil {
		return fmt.Sprintf("oracle (noiseless): %v", err)
	}
	bs, err := stab.NewBatchFrameSampler(c, seed)
	if err != nil {
		return fmt.Sprintf("batch compile: %v", err)
	}
	ref := recordKey(bs.Reference())
	onSupport := false
	for _, s := range sup {
		if s == ref {
			onSupport = true
			break
		}
	}
	if !onSupport {
		return fmt.Sprintf("reference record %#x outside the noiseless support %v", ref, sup)
	}
	// Shots are drawn 64 per word through the batch sampler; the
	// determinism contract makes this bit-identical to the scalar
	// FrameSampler loop this check originally ran.
	smear := xrand.New(seed ^ shotSeedSalt)
	counts := make(map[uint64]int)
	bs.SampleInto(shots, func(_ int, rec []bool) {
		r := recordKey(rec)
		s := sup[smear.Intn(len(sup))]
		counts[r^ref^s]++
	})
	if res := ChiSquare(dist, counts, shots); !res.OK() {
		return fmt.Sprintf("FrameSampler flip distribution vs statevec oracle: %s (ref=%#x, |support|=%d)", res, ref, len(sup))
	}
	return ""
}

// CheckFrameSampler generates a random noisy circuit and validates the
// Pauli-frame batch sampler against the state-vector oracle.
func CheckFrameSampler(seed int64, shape CircuitShape, shots int) *Failure {
	c := RandomCircuit(seed, shape)
	detail := checkFrameCircuit(c, seed, shots)
	if detail == "" {
		return nil
	}
	c = ShrinkCircuit(c, func(s *stab.Circuit) bool {
		return checkFrameCircuit(s, seed, shots) != ""
	})
	detail = checkFrameCircuit(c, seed, shots)
	return &Failure{Check: "frame", Seed: seed, Detail: detail, Circuit: DumpCircuit(c)}
}

// CheckDecoder holds the bit-packed production decoder to the
// differential contract against the frozen reference matcher
// (decoder.CheckDifferential) on randomized syndromes of the given
// distance: per-cluster minimum weight, byte identity while every
// cluster stays on the DP, and a correction that annihilates the
// syndrome (error + correction is syndrome-free).
func CheckDecoder(seed int64, d, trials int) *Failure {
	rng := xrand.New(seed)
	c := surface.NewCode(d)
	fail := func(detail string) *Failure {
		return &Failure{Check: "decoder", Seed: seed, Detail: fmt.Sprintf("d=%d: %s", d, detail)}
	}
	for trial := 0; trial < trials; trial++ {
		basis := pauli.Z
		if rng.Intn(2) == 1 {
			basis = pauli.X
		}
		var syn map[surface.Coord]bool
		var errs []surface.Coord
		if trial%3 == 0 {
			// Arbitrary plaquette subsets stress clustering and both
			// exact solvers beyond physically-realizable syndromes.
			syn = make(map[surface.Coord]bool)
			for _, st := range c.Stabilizers() {
				if st.Basis == basis && rng.Float64() < 0.15 {
					syn[st.Anc] = true
				}
			}
		} else {
			for i := 0; i < 1+rng.Intn(d); i++ {
				errs = append(errs, surface.Coord{Row: rng.Intn(d), Col: rng.Intn(d)})
			}
			syn = decoder.SyndromeOf(c, basis, errs)
		}
		got := decoder.DecodePatch(c, basis, syn)
		if err := decoder.CheckDifferential(c, basis, syn, got); err != nil {
			return fail(fmt.Sprintf("trial %d basis=%v: %v\nsyndrome: %v", trial, basis, err, sortedCells(syn)))
		}
	}
	return nil
}

func sortedCells(syn map[surface.Coord]bool) []surface.Coord {
	var cells []surface.Coord
	for p, on := range syn {
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
	return cells
}

func decodeResultsEqual(a, b decoder.Result) bool {
	if len(a.Flips) != len(b.Flips) || len(a.Matches) != len(b.Matches) {
		return false
	}
	for i := range a.Flips {
		if a.Flips[i] != b.Flips[i] {
			return false
		}
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			return false
		}
	}
	return true
}

// ShrinkCircuit greedily minimizes a failing circuit: it repeatedly
// removes single ops while the predicate keeps failing, to a fixed
// point. The result is a locally-minimal repro — removing any one op
// makes the failure disappear.
func ShrinkCircuit(c *stab.Circuit, fails func(*stab.Circuit) bool) *stab.Circuit {
	cur := &stab.Circuit{N: c.N, Ops: append([]stab.Op(nil), c.Ops...)}
	for pass := 0; pass < 16; pass++ {
		removed := false
		for i := 0; i < len(cur.Ops); i++ {
			cand := &stab.Circuit{N: cur.N, Ops: make([]stab.Op, 0, len(cur.Ops)-1)}
			cand.Ops = append(cand.Ops, cur.Ops[:i]...)
			cand.Ops = append(cand.Ops, cur.Ops[i+1:]...)
			if cand.Measurements() == 0 {
				continue
			}
			if fails(cand) {
				cur = cand
				removed = true
				i--
			}
		}
		if !removed {
			break
		}
	}
	return cur
}
