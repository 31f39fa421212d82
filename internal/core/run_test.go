package core

import (
	"context"
	"runtime"
	"testing"

	"xqsim/internal/compiler"
	"xqsim/internal/decoder"
	"xqsim/internal/ftqc"
	"xqsim/internal/microarch"
)

func TestRunShotsDistribution(t *testing.T) {
	// Noiseless PPR(pi/4, Z) on |0>: the state stays |0> up to phase, so
	// the readout must be deterministic 0.
	circ := compiler.SinglePPR("Z", ftqc.AnglePi4)
	dist, m, err := RunShots(context.Background(), circ, 3, 0, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] < 0.999 {
		t.Fatalf("P(0) = %v, want 1", dist[0])
	}
	if m == nil || m.ESMRounds == 0 {
		t.Fatal("metrics missing")
	}
}

func TestRunShotsCompileError(t *testing.T) {
	bad := compiler.Circuit{NLQ: 0}
	if _, _, err := RunShots(context.Background(), bad, 3, 0, 1, 1); err == nil {
		t.Fatal("expected compile error")
	}
	if _, _, _, err := ValidateCircuit(context.Background(), bad, 3, 0, 1, 1); err == nil {
		t.Fatal("expected validate error")
	}
}

func TestValidateCircuitTableThreeRegime(t *testing.T) {
	// A single-PPR benchmark at d=3, p=0.1% must validate with small dTV
	// (the Table-3 regime).
	circ := compiler.SinglePPR("ZZ", ftqc.AnglePi8)
	dtv, phys, ref, err := ValidateCircuit(context.Background(), circ, 3, 0.001, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(phys) != len(ref) {
		t.Fatal("distribution sizes differ")
	}
	if dtv > 0.12 {
		t.Fatalf("dTV = %v", dtv)
	}
}

func TestRunScalingWorkloadMetrics(t *testing.T) {
	m, err := RunScalingWorkload(7, 0.001, decoder.SchemePriority, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.ESMRounds == 0 || m.DecodeWindows == 0 {
		t.Fatal("scaling run produced no activity")
	}
	if m.TransferBits[microarch.UnitPSU][microarch.UnitTCU] == 0 {
		t.Fatal("no codeword traffic recorded")
	}
}

func TestPipelineConfigDefaults(t *testing.T) {
	cfg := PipelineConfig(15, 0.001, decoder.SchemePriority, true, 9)
	if cfg.D != 15 || !cfg.Functional || cfg.CwdBits != 26 || cfg.StepsPerRound != 8 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.T1QNs != 14 || cfg.T2QNs != 26 || cfg.TMeasNs != 600 {
		t.Fatal("gate latencies drifted")
	}
}

func TestFreqOfAllTechs(t *testing.T) {
	d := 15
	if f := NearFutureRSFQ(d, false).freqOf(microarch.UnitPSU); f != 21.0 {
		t.Errorf("RSFQ freq = %v", f)
	}
	if f := FutureSystem(d, true, false).freqOf(microarch.UnitEDU); f != 21.0 {
		t.Errorf("ERSFQ freq = %v", f)
	}
	if f := NearFutureCMOS4K(d, false).freqOf(microarch.UnitPSU); f != 1.5 {
		t.Errorf("4K CMOS freq = %v", f)
	}
	if f := CurrentSystem(d, false).freqOf(microarch.UnitEDU); f != 1.5 {
		t.Errorf("300K CMOS freq = %v", f)
	}
}

func TestBudgetOverride(t *testing.T) {
	_, r, _ := rates(t)
	base := FutureSystem(15, true, true)
	nBase := base.MaxQubits(r)

	richer := FutureSystem(15, true, true)
	b := DefaultBudget()
	b.Power4KW = 3.0
	richer.Budget = b
	nRich := richer.MaxQubits(r)
	if nRich <= nBase {
		t.Fatalf("doubled power budget did not help: %d vs %d", nRich, nBase)
	}

	// A tighter decode budget must shrink a decode-limited system.
	slow := CurrentSystem(15, true)
	tight := CurrentSystem(15, true)
	tb := DefaultBudget()
	tb.DecodeBudgetNs = 200
	tight.Budget = tb
	decodeOK := func(rep Report) bool { return rep.DecodeOK }
	if tight.ConstraintLimit(r, decodeOK) >= slow.ConstraintLimit(r, decodeOK) {
		t.Fatal("tighter decode budget did not bite")
	}
	// A doubled power budget also doubles the admissible cable count.
	if b.MaxCrossGbps() <= DefaultBudget().MaxCrossGbps() {
		t.Fatal("cable budget did not grow with the power budget")
	}
}

func TestRunShotsDeterministicAcrossScheduling(t *testing.T) {
	// Per-shot seeds are fixed, so the distribution is identical across
	// runs despite parallel scheduling.
	circ := compiler.SinglePPR("XZ", ftqc.AnglePi4)
	a, _, err := RunShots(context.Background(), circ, 3, 0.002, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunShots(context.Background(), circ, 3, 0.002, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("distribution differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMSDSelfCheckThroughFullPipeline(t *testing.T) {
	// The 15-to-1 distillation self-check through the complete stack
	// (QISA, microarchitecture, noisy surface-code backend): under the
	// stabilizer substitution both sides of the comparison shift
	// consistently, so the sampled distribution must match the
	// substituted reference.
	circ := compiler.MSD15To1SelfCheck()
	// Noiseless first: the datapath must match the substituted reference
	// exactly (up to sampling).
	dtv0, _, _, err := ValidateCircuit(context.Background(), circ, 3, 0, 150, 21)
	if err != nil {
		t.Fatal(err)
	}
	if dtv0 > 0.12 {
		t.Fatalf("noiseless MSD self-check dTV = %v", dtv0)
	}
	// With noise at d=3 this 31-rotation workload accumulates real
	// logical errors (~93 decode windows over ~8 active patches); the
	// distribution must still stay recognizably close.
	dtv, _, _, err := ValidateCircuit(context.Background(), circ, 3, 0.001, 150, 21)
	if err != nil {
		t.Fatal(err)
	}
	if dtv > 0.45 {
		t.Fatalf("noisy MSD self-check dTV = %v", dtv)
	}
}

func TestRatesScaleInvariance(t *testing.T) {
	// The engine extrapolates macroscopic metrics from rates measured at a
	// reference scale; that is only sound if the per-qubit rates are
	// scale-invariant. Measure at two workload sizes and compare.
	a := measureRatesN(7, 0.001, decoder.SchemePriority, 3, 3, 4)
	b := measureRatesN(7, 0.001, decoder.SchemePriority, 3, 6, 4)
	rel := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		d := (x - y) / y
		if d < 0 {
			return -d
		}
		return d
	}
	if rel(a.BitsPerQubitPerRound, b.BitsPerQubitPerRound) > 0.02 {
		t.Fatalf("codeword density not scale-invariant: %v vs %v",
			a.BitsPerQubitPerRound, b.BitsPerQubitPerRound)
	}
	if rel(a.SyndromesPerQubitPerWindow, b.SyndromesPerQubitPerWindow) > 0.5 {
		t.Fatalf("syndrome density drifts with scale: %v vs %v",
			a.SyndromesPerQubitPerWindow, b.SyndromesPerQubitPerWindow)
	}
	if rel(a.AvgMatchSteps, b.AvgMatchSteps) > 0.6 {
		t.Fatalf("match distance drifts with scale: %v vs %v", a.AvgMatchSteps, b.AvgMatchSteps)
	}
}

// TestRunShotsClonesBeforeWorkersStart is the regression for a data race
// in RunShotsOpt: worker 0 ran shots on the base runner (Pipeline.Reset
// writes its config) while the loop still cloned that runner for later
// workers (Clone reads it). With several workers, `go test -race` flags
// the old order on every run; the result must also stay deterministic.
func TestRunShotsClonesBeforeWorkersStart(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	circ := compiler.SinglePPR("XZ", ftqc.AnglePi4)
	want, _, err := RunShots(context.Background(), circ, 3, 0.002, 16, 29)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, _, err := RunShots(context.Background(), circ, 3, 0.002, 16, 29)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("run %d: distribution differs at %d: %v vs %v", i, k, got[k], want[k])
			}
		}
	}
}
