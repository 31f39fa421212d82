package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xqsim/internal/compiler"
	"xqsim/internal/config"
	"xqsim/internal/decoder"
	"xqsim/internal/estimator"
	"xqsim/internal/faults"
	"xqsim/internal/microarch"
	"xqsim/internal/pauli"
	"xqsim/internal/statevec"
	"xqsim/internal/surface"
)

func workloadCircuit(nLQ, pprs int, seed int64) compiler.Circuit {
	return compiler.RandomPPR(nLQ, pprs, seed).SubstituteStabilizer()
}

func compileCircuit(c compiler.Circuit) (*compiler.Result, error) { return compiler.Compile(c) }

func newLayout(nLQ, d int) *surface.PPRLayout { return surface.NewPPRLayout(nLQ, d) }

// PipelineConfig builds the standard microarchitecture configuration from
// Table 4 constants.
func PipelineConfig(d int, physError float64, scheme decoder.Scheme, functional bool, seed int64) microarch.Config {
	return microarch.Config{
		D:              d,
		PhysError:      physError,
		Seed:           seed,
		Functional:     functional,
		Scheme:         scheme,
		MaskGenerators: config.DefaultMaskGenerators,
		MaskSharing:    1,
		CwdBits:        config.CodewordBits,
		StepsPerRound:  config.ESMStepsPerRound,
		T1QNs:          config.T1QNs,
		T2QNs:          config.T2QNs,
		TMeasNs:        config.TMeasNs,
	}
}

// RunOptions tunes RunShotsOpt beyond the standard happy path.
type RunOptions struct {
	// Faults configures deterministic fault injection in every shot's
	// pipeline (decoder stalls, buffer overflow, link corruption); the
	// zero value injects nothing.
	Faults faults.Config
	// ShotTimeout is the per-shot watchdog: a shot whose pipeline run
	// exceeds it is aborted and reported as an error carrying the shot
	// index and seed. Zero disables the watchdog.
	ShotTimeout time.Duration
}

// shotSeedStride separates per-shot seed streams (a prime, so strides
// never fold onto each other for nearby base seeds).
const shotSeedStride = 104729

// ShotSeed returns the derived seed of one shot, so a failed shot
// reported by RunShots can be replayed in isolation.
func ShotSeed(seed int64, shot int) int64 { return seed + int64(shot)*shotSeedStride }

// shotHook, when non-nil, runs at the start of every shot. It exists so
// tests can inject deliberate panics into worker goroutines.
var shotHook func(shot int)

// runOneShot executes a single shot end to end through the interpreted
// path, building a fresh pipeline — the reference implementation the
// reusable ShotRunner is tested against. A worker panic is converted
// into an error that names the shot and its seed for replay.
func runOneShot(ctx context.Context, res *compiler.Result, nLQ, d int, physError float64, seed int64, s int, opts RunOptions) (m *microarch.Metrics, key int, err error) {
	shotSeed := ShotSeed(seed, s)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: shot %d panicked: %v (replay with seed %d)", s, r, shotSeed)
		}
	}()
	if shotHook != nil {
		shotHook(s)
	}
	cfg := PipelineConfig(d, physError, decoder.SchemePriority, true, shotSeed)
	cfg.Faults = opts.Faults
	pl := microarch.NewPipeline(surface.NewPPRLayout(nLQ, d), cfg)
	runCtx := ctx
	if opts.ShotTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, opts.ShotTimeout)
		defer cancel()
	}
	if err := pl.RunCtx(runCtx, res.Program); err != nil {
		return nil, 0, fmt.Errorf("core: shot %d (seed %d): %w", s, shotSeed, err)
	}
	for q, mreg := range res.FinalMreg {
		if pl.M.MregFile.Get(uint16(mreg)) {
			key |= 1 << uint(q)
		}
	}
	return &pl.M, key, nil
}

// ShotRunner executes shots of one circuit through a reusable pipeline.
// The circuit is compiled exactly once — QISA program plus the
// pre-validated micro-op stream — and every RunShot resets the same
// pipeline to the shot's derived seed, so the steady-state shot costs
// zero heap allocations (pinned by TestShotRunnerSteadyStateAllocs).
// The pipeline Reset determinism contract makes each shot bit-identical
// to what a freshly built pipeline would produce, so results do not
// depend on which runner (or how warmed-up a runner) executes a shot.
//
// A runner is single-goroutine; Clone gives each worker its own pipeline
// over the shared compiled artifacts.
type ShotRunner struct {
	res  *compiler.Result           //xqlint:shared compile result is immutable after Compile
	cp   *microarch.CompiledProgram //xqlint:shared compiled op-stream is immutable; workers replay it read-only
	nLQ  int
	seed int64
	opts RunOptions
	pl   *microarch.Pipeline
}

// NewShotRunner validates and compiles circ once and builds the reusable
// pipeline. Shot s of RunShot draws its stream from ShotSeed(seed, s).
func NewShotRunner(circ compiler.Circuit, d int, physError float64, seed int64, opts RunOptions) (*ShotRunner, error) {
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	res, err := compiler.Compile(circ)
	if err != nil {
		return nil, err
	}
	cp, err := microarch.CompileProgram(res.Program, circ.NLQ, d)
	if err != nil {
		return nil, err
	}
	cfg := PipelineConfig(d, physError, decoder.SchemePriority, true, seed)
	cfg.Faults = opts.Faults
	return &ShotRunner{
		res:  res,
		cp:   cp,
		nLQ:  circ.NLQ,
		seed: seed,
		opts: opts,
		pl:   microarch.NewPipeline(surface.NewPPRLayout(circ.NLQ, d), cfg),
	}, nil
}

// Clone returns a runner over the same compiled program with its own
// pipeline, so shots can run on several workers concurrently.
func (r *ShotRunner) Clone() *ShotRunner {
	c := *r
	c.pl = microarch.NewPipeline(surface.NewPPRLayout(r.nLQ, r.pl.Cfg.D), r.pl.Cfg)
	return &c
}

// RunShot executes shot s: the pipeline is rewound to ShotSeed(seed, s)
// and the compiled stream replayed. The returned metrics point into the
// runner's pipeline and are valid until the next RunShot; callers that
// keep them across shots must copy the value. A panic is recovered into
// an error naming the shot and its replay seed, like RunShots reports.
func (r *ShotRunner) RunShot(ctx context.Context, s int) (m *microarch.Metrics, key int, err error) {
	shotSeed := ShotSeed(r.seed, s)
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: shot %d panicked: %v (replay with seed %d)", s, rec, shotSeed)
		}
	}()
	if shotHook != nil {
		shotHook(s)
	}
	r.pl.Reset(shotSeed)
	runCtx := ctx
	if r.opts.ShotTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, r.opts.ShotTimeout)
		defer cancel()
	}
	if err := r.pl.RunCompiled(runCtx, r.cp); err != nil {
		return nil, 0, fmt.Errorf("core: shot %d (seed %d): %w", s, shotSeed, err)
	}
	for q, mreg := range r.res.FinalMreg {
		if r.pl.M.MregFile.Get(uint16(mreg)) {
			key |= 1 << uint(q)
		}
	}
	return &r.pl.M, key, nil
}

// RunShots executes a circuit through the full stack (compiler -> QISA ->
// microarchitecture -> noisy surface-code backend) for the given number of
// shots and returns the empirical distribution over final logical
// readouts plus the final shot's metrics. Circuits containing pi/8
// rotations must be passed through SubstituteStabilizer first.
//
// Shots run across GOMAXPROCS workers; per-shot seeds are derived
// deterministically from the base seed, so the distribution is
// reproducible regardless of scheduling. Canceling ctx aborts the run
// between instructions and returns the context's error.
func RunShots(ctx context.Context, circ compiler.Circuit, d int, physError float64, shots int, seed int64) ([]float64, *microarch.Metrics, error) {
	return RunShotsOpt(ctx, circ, d, physError, shots, seed, RunOptions{})
}

// RunShotsOpt is RunShots with fault injection and a per-shot watchdog.
// The returned metrics carry the final shot's accounting, except Faults,
// which is summed across all shots (an integer reduction, so it is
// identical regardless of worker scheduling). A panicking shot is
// recovered and reported as an error naming the shot index and seed.
func RunShotsOpt(ctx context.Context, circ compiler.Circuit, d int, physError float64, shots int, seed int64, opts RunOptions) ([]float64, *microarch.Metrics, error) {
	base, err := NewShotRunner(circ, d, physError, seed, opts)
	if err != nil {
		return nil, nil, err
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > shots {
		workers = shots
	}
	if workers < 1 {
		workers = 1
	}

	counts := make([]float64, 1<<uint(circ.NLQ))
	var (
		mu           sync.Mutex
		last         *microarch.Metrics
		lastShot     = -1
		firstErr     error
		firstErrShot = shots
		faultSum     faults.Totals
	)
	// Every runner is cloned before any goroutine starts: Clone reads the
	// base pipeline's config, which worker 0's RunShot rewrites in Reset.
	runners := make([]*ShotRunner, workers)
	runners[0] = base
	for w := 1; w < workers; w++ {
		runners[w] = base.Clone()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, runner := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker tallies; merged under the mutex once at the end
			// so the hot loop stays contention-free. The metrics buffer is
			// a value copy: RunShot's result lives inside the reused
			// pipeline and is overwritten by the worker's next shot.
			local := make([]float64, len(counts))
			var localFaults faults.Totals
			localLast := -1
			var localM microarch.Metrics
			var localErr error
			localErrShot := shots
			for {
				s := int(next.Add(1)) - 1
				if s >= shots {
					break
				}
				if err := ctx.Err(); err != nil {
					if s < localErrShot {
						localErr, localErrShot = err, s
					}
					break
				}
				m, key, err := runner.RunShot(ctx, s)
				if err != nil {
					if s < localErrShot {
						localErr, localErrShot = err, s
					}
					continue
				}
				local[key]++
				localFaults.Add(m.Faults)
				if s > localLast {
					localLast, localM = s, *m
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for i, c := range local {
				counts[i] += c
			}
			faultSum.Add(localFaults)
			if localLast > lastShot {
				m := localM
				lastShot, last = localLast, &m
			}
			// Deterministic error selection: the lowest-indexed failing
			// shot wins, regardless of which worker saw it first.
			if localErr != nil && localErrShot < firstErrShot {
				firstErr, firstErrShot = localErr, localErrShot
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, nil, firstErr
	}
	for i := range counts {
		counts[i] /= float64(shots)
	}
	if last != nil {
		last.Faults = faultSum
	}
	return counts, last, nil
}

// ValidateCircuit computes the Table-3 total variation distance between
// the noisy physical-level sampling and the exact logical reference for a
// benchmark circuit.
func ValidateCircuit(ctx context.Context, circ compiler.Circuit, d int, physError float64, shots int, seed int64) (dtv float64, phys []float64, ref []float64, err error) {
	if err := circ.Validate(); err != nil {
		return 0, nil, nil, err
	}
	sub := circ.SubstituteStabilizer()
	ref = compiler.ReferenceDistribution(sub)
	phys, _, err = RunShots(ctx, sub, d, physError, shots, seed)
	if err != nil {
		return 0, nil, nil, err
	}
	return statevec.TotalVariation(ref, phys), phys, ref, nil
}

// SuccessRate models the application-level success probability of running
// a workload at a given scale under the system's constraint pressure
// (the paper's Fig. 5 methodology, following Litinski's accounting):
// every active patch accrues a logical error chance per d-round window,
// and violated constraints inflate the effective physical error rate by
// the induced idle time.
//
// windows is the workload's total ESM-window count (e.g. 3 per PPR: init,
// merge, split).
func (s *System) SuccessRate(nPhys, windows int, r Rates) float64 {
	rep := s.Evaluate(nPhys, r)
	b := s.budget()
	stall := 1.0
	if rep.DecodeLatencyNs > b.DecodeBudgetNs {
		stall += rep.DecodeLatencyNs / b.DecodeBudgetNs
	}
	if !rep.BWOK {
		stall += rep.CrossTransferGbps / b.MaxCrossGbps()
	}
	if !rep.TransferOK {
		stall += rep.CrossHeatW / b.Power4KW
	}
	pEff := b.PhysErrorRate * stall
	if pEff > 0.5 {
		pEff = 0.5
	}
	// Standard surface-code logical-error fit per patch per window.
	pl := config.LogicalErrorA * math.Pow(pEff/config.ErrorThreshold, float64(s.D+1)/2)
	if pl > 1 {
		pl = 1
	}
	patches := float64(estimator.ScaleFor(nPhys, s.D).NPatches)
	return math.Exp(-pl * patches * float64(windows))
}

// RunScalingWorkload executes a reference random-PPR workload through the
// pipeline in scaling mode (no tableau) and returns the metrics — the
// traffic and activity breakdowns behind Fig. 16.
func RunScalingWorkload(d int, physError float64, scheme decoder.Scheme, seed int64) (*microarch.Metrics, error) {
	circ := workloadCircuit(4, 6, seed)
	res, err := compiler.Compile(circ)
	if err != nil {
		return nil, fmt.Errorf("core: compile scaling workload: %w", err)
	}
	cfg := PipelineConfig(d, physError, scheme, false, seed)
	pl := microarch.NewPipeline(newLayout(circ.NLQ, d), cfg)
	if err := pl.Run(res.Program); err != nil {
		return nil, fmt.Errorf("core: run scaling workload: %w", err)
	}
	return &pl.M, nil
}

// trialSeedStride separates per-trial seed streams of the memory
// experiment (a prime, like shotSeedStride).
const trialSeedStride = 6151

// memoryTrial runs one threshold-experiment trial: prepare |0_L>, run
// `windows` decode windows with fault injection, and report whether the
// final Z readout flipped. A panic inside the backend is converted into
// an error naming the trial and its seed.
//
// It builds a fresh backend per trial — the reference implementation the
// reusable MemoryRunner is tested against (TestMemoryRunnerMatchesFresh).
func memoryTrial(d int, p float64, windows int, trialSeed int64, fcfg faults.Config) (fail bool, tot faults.Totals, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: memory trial panicked: %v (replay with seed %d)", r, trialSeed)
		}
	}()
	layout := surface.NewPPRLayout(1, d)
	b := microarch.NewBackend(layout, p, trialSeed, true)
	inj := faults.NewInjector(fcfg, trialSeed)
	b.PrepareZero(0)
	for w := 0; w < windows; w++ {
		for r := 0; r < d; r++ {
			b.InjectRoundNoise()
			if inj.Round().DropEvents {
				b.DropNextRoundEvents()
			}
			b.MeasureSyndromesRound(r == d-1)
		}
		wd := b.FinishWindow()
		// The injector prices the window at the same decode cost the full
		// pipeline would; under backpressure overflow the data qubits
		// idle (and decohere) for the excess rounds.
		wo := inj.Window(microarch.DecodeWindowCycles(decoder.SchemePriority, d, wd), d)
		for i := 0; i < wo.BackpressureRounds; i++ {
			b.InjectRoundNoise()
		}
	}
	pr := pauli.NewProduct(b.NumLQ())
	pr.Ops[0] = pauli.Z
	return b.MeasureProduct(pr), inj.Totals(), nil
}

// MemoryRunner holds the reusable state of one threshold-experiment
// worker: a single-patch backend, a fault injector, and the readout
// product. Trial rewinds them to the trial's derived seed, and the
// backend Reset contract makes the result bit-identical to a freshly
// built backend's — so trials are independent of which runner executes
// them, and the steady-state trial loop is allocation-free.
type MemoryRunner struct {
	d    int
	b    *microarch.Backend
	inj  *faults.Injector
	fcfg faults.Config
	pr   pauli.Product
}

// NewMemoryRunner builds a runner for a distance-d memory patch at
// physical error rate p under the fault environment fcfg (zero value:
// no injection).
func NewMemoryRunner(d int, p float64, fcfg faults.Config) *MemoryRunner {
	b := microarch.NewBackend(surface.NewPPRLayout(1, d), p, 0, true)
	return &MemoryRunner{
		d:    d,
		b:    b,
		inj:  faults.NewInjector(fcfg, 0),
		fcfg: fcfg,
		pr:   pauli.NewProduct(b.NumLQ()),
	}
}

// SetPhysError retargets the runner to a new physical error rate; sweep
// grids reuse one runner across their error-rate cells.
func (r *MemoryRunner) SetPhysError(p float64) { r.b.SetPhysError(p) }

// SetFaults swaps the fault environment. The injector's schedule is
// reseeded at every trial, so the swap only matters for the config.
func (r *MemoryRunner) SetFaults(fcfg faults.Config) {
	if fcfg == r.fcfg {
		return
	}
	r.fcfg = fcfg
	r.inj = faults.NewInjector(fcfg, 0)
}

// Trial runs one threshold-experiment trial at the given derived seed,
// reproducing memoryTrial's fresh-construction result exactly.
func (r *MemoryRunner) Trial(windows int, trialSeed int64) (fail bool, tot faults.Totals, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: memory trial panicked: %v (replay with seed %d)", rec, trialSeed)
		}
	}()
	b := r.b
	b.Reset(trialSeed)
	r.inj.Reset(trialSeed)
	b.PrepareZero(0)
	for w := 0; w < windows; w++ {
		for rd := 0; rd < r.d; rd++ {
			b.InjectRoundNoise()
			if r.inj.Round().DropEvents {
				b.DropNextRoundEvents()
			}
			b.MeasureSyndromesRound(rd == r.d-1)
		}
		wd := b.FinishWindow()
		wo := r.inj.Window(microarch.DecodeWindowCycles(decoder.SchemePriority, r.d, wd), r.d)
		for i := 0; i < wo.BackpressureRounds; i++ {
			b.InjectRoundNoise()
		}
	}
	for q := range r.pr.Ops {
		r.pr.Ops[q] = pauli.I
	}
	r.pr.Phase = 0
	r.pr.Ops[0] = pauli.Z
	return b.MeasureProduct(r.pr), r.inj.Totals(), nil
}

// MemoryExperiment is a reusable worker pool of MemoryRunners for one
// code distance. Grid sweeps hold one experiment per distance and call
// ErrorRate per cell: the backends, tableaus, and layouts are built once
// and retargeted in place (SetPhysError/SetFaults), which is where the
// threshold-study allocation reduction comes from.
type MemoryExperiment struct {
	d       int
	runners []*MemoryRunner
}

// NewMemoryExperiment builds an empty pool for distance d; runners are
// created lazily, one per worker, on the first ErrorRate call.
func NewMemoryExperiment(d int) *MemoryExperiment { return &MemoryExperiment{d: d} }

// ErrorRate measures the logical error rate of one (p, fcfg) cell over
// `trials` trials with per-trial derived seeds, exactly as
// LogicalErrorRateFaults reports it. The experiment must not be used
// from multiple goroutines at once (it parallelizes internally).
func (e *MemoryExperiment) ErrorRate(ctx context.Context, p float64, windows, trials int, seed int64, fcfg faults.Config) (float64, faults.Totals, error) {
	if err := fcfg.Validate(); err != nil {
		return 0, faults.Totals{}, err
	}
	if trials <= 0 {
		return 0, faults.Totals{}, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	for len(e.runners) < workers {
		e.runners = append(e.runners, NewMemoryRunner(e.d, p, fcfg))
	}
	for _, r := range e.runners {
		r.SetPhysError(p)
		r.SetFaults(fcfg)
	}
	var (
		mu          sync.Mutex
		firstErr    error
		firstErrIdx = trials
		faultSum    faults.Totals
		fails, next atomic.Int64
		wg          sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		runner := e.runners[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var localFaults faults.Totals
			var localErr error
			localErrIdx := trials
			for {
				t := int(next.Add(1)) - 1
				if t >= trials {
					break
				}
				if err := ctx.Err(); err != nil {
					if t < localErrIdx {
						localErr, localErrIdx = err, t
					}
					break
				}
				fail, tot, err := runner.Trial(windows, seed+int64(t)*trialSeedStride)
				if err != nil {
					if t < localErrIdx {
						localErr, localErrIdx = err, t
					}
					continue
				}
				if fail {
					fails.Add(1)
				}
				localFaults.Add(tot)
			}
			mu.Lock()
			defer mu.Unlock()
			faultSum.Add(localFaults)
			if localErr != nil && localErrIdx < firstErrIdx {
				firstErr, firstErrIdx = localErr, localErrIdx
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, faults.Totals{}, firstErr
	}
	return float64(fails.Load()) / float64(trials), faultSum, nil
}

// LogicalErrorRate measures the per-window logical X-error rate of a
// single-patch quantum memory at distance d and physical error rate p, by
// direct simulation of the backend: prepare |0_L>, run `windows` decode
// windows, and count readout flips. This is the standard threshold
// experiment; internal/sweep.ThresholdStudy sweeps it across distances.
// Trials are independent simulations with per-trial seeds, so they run
// across GOMAXPROCS workers; the returned rate is a pure count and thus
// identical to the serial loop's regardless of scheduling. Canceling ctx
// aborts between trials with the context's error.
func LogicalErrorRate(ctx context.Context, d int, p float64, windows, trials int, seed int64) (float64, error) {
	rate, _, err := LogicalErrorRateFaults(ctx, d, p, windows, trials, seed, faults.Config{})
	return rate, err
}

// LogicalErrorRateFaults is LogicalErrorRate under an injected fault
// environment; it additionally returns the fault totals summed across all
// trials (an integer reduction, so deterministic under any scheduling).
// This is the probe behind the degradation curves: logical error rate
// versus injected decoder-stall or link-corruption rate.
func LogicalErrorRateFaults(ctx context.Context, d int, p float64, windows, trials int, seed int64, fcfg faults.Config) (float64, faults.Totals, error) {
	return NewMemoryExperiment(d).ErrorRate(ctx, p, windows, trials, seed, fcfg)
}
