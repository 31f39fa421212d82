package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"xqsim/internal/decoder"
	"xqsim/internal/faults"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
	"xqsim/internal/surface"
)

// StreamMemoryConfig configures a real-time streaming memory experiment:
// the distance-d memory circuit's syndrome rounds are replayed one at a
// time through a decoder.StreamDecoder, so the decode backend's latency
// (measured against BudgetCycles per ESM round) feeds the syndrome-buffer
// backlog and, under overload, visibly degrades the logical error rate.
type StreamMemoryConfig struct {
	D         int
	PhysError float64
	Rounds    int
	// Backend is the decode implementation (nil: the exact matcher); each
	// cell installs its own Clone.
	Backend decoder.Backend
	// WindowRounds, BudgetCycles, BufferRounds, and Policy are the
	// streaming-decode knobs (see decoder.StreamConfig). BudgetCycles 0
	// disables latency pressure, reducing the experiment to
	// FrameLogicalErrorRate's whole-shot decode bit-for-bit.
	WindowRounds int
	BudgetCycles uint64
	BufferRounds int
	Policy       faults.Policy
}

// StreamMemoryResult is the outcome of a streamed memory experiment.
type StreamMemoryResult struct {
	// Rate is the logical Z-memory failure fraction.
	Rate float64
	// Shots and Fails are the raw counts behind Rate.
	Shots int
	Fails int
	// Stats aggregates the per-shot stream accounting (integer sums, so
	// the reduction is order-independent under parallel workers; the two
	// Max fields take the maximum instead).
	Stats decoder.StreamStats
}

// StreamMemoryCell is the streaming counterpart of FrameMemoryCell: the
// same compiled bit-sliced batch sampler, but failing lanes replay their
// syndrome rounds through a StreamDecoder instead of decoding the final
// accumulated syndrome in one shot. Lanes with no detection events and no
// logical flip are skipped exactly as in FrameMemoryCell — a quiet lane's
// windows all decode empty syndromes at zero cycles, so skipping it
// cannot change drops, stats beyond round counts, or the verdict.
//
// A cell is single-goroutine; Clone gives each worker its own sampler
// position, stream decoder, and backend scratch.
type StreamMemoryCell struct {
	cfg  StreamMemoryConfig
	code surface.Code
	bs   *stab.BatchFrameSampler

	// zOff[k] is the k-th Z-stabilizer's index within one round's
	// measurement block (round r measures it at r*roundLen+zOff[k]);
	// zAnc[k] its plaquette cell.
	zOff     []int           //xqlint:shared immutable decode indices built at construction
	zAnc     []surface.Coord //xqlint:shared immutable decode indices built at construction
	roundLen int
	// logicalMis and refMask are as in FrameMemoryCell.
	logicalMis []int    //xqlint:shared immutable decode indices built at construction
	refMask    []uint64 //xqlint:shared write-once reference mask shared by every worker

	sd     *decoder.StreamDecoder
	events *decoder.SyndromeBitmap
	prev   []uint8 // previous round's flip bit per Z-stabilizer
	fails  int
	stats  decoder.StreamStats
	fn     func(base, lanes int, cols []uint64)
}

// NewStreamMemoryCell compiles the memory experiment and builds the
// stream decoder. Shot k is fixed by the frame sampler's determinism
// contract for the given seed.
func NewStreamMemoryCell(cfg StreamMemoryConfig, seed int64) (*StreamMemoryCell, error) {
	if cfg.D < 3 || cfg.D%2 == 0 {
		return nil, fmt.Errorf("core: stream memory cell: invalid code distance %d", cfg.D)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("core: stream memory cell: rounds must be >= 1, got %d", cfg.Rounds)
	}
	code := surface.NewCode(cfg.D)
	circ := code.MemoryCircuit(cfg.Rounds, cfg.PhysError, cfg.PhysError)
	bs, err := stab.NewBatchFrameSampler(circ, seed)
	if err != nil {
		return nil, fmt.Errorf("core: stream memory cell: %w", err)
	}
	backend := cfg.Backend
	if backend == nil {
		backend = decoder.NewMatchingBackend()
	}
	sd, err := decoder.NewStreamDecoder(decoder.StreamConfig{
		Code: code, Basis: pauli.Z, Backend: backend.Clone(),
		WindowRounds: cfg.WindowRounds, BudgetCycles: cfg.BudgetCycles,
		BufferRounds: cfg.BufferRounds, Policy: cfg.Policy,
	})
	if err != nil {
		return nil, fmt.Errorf("core: stream memory cell: %w", err)
	}
	c := &StreamMemoryCell{
		cfg: cfg, code: code, bs: bs, sd: sd,
		events: decoder.NewSyndromeBitmap(code),
	}
	stabs := code.Stabilizers()
	c.roundLen = len(stabs)
	for i, st := range stabs {
		if st.Basis == pauli.Z {
			c.zOff = append(c.zOff, i)
			c.zAnc = append(c.zAnc, st.Anc)
		}
	}
	dataBase := cfg.Rounds * len(stabs)
	for _, q := range code.LogicalZ() {
		c.logicalMis = append(c.logicalMis, dataBase+code.DataIndex(q))
	}
	c.refMask = make([]uint64, bs.Measurements())
	for i := range c.refMask {
		if bs.RefBit(i) {
			c.refMask[i] = ^uint64(0)
		}
	}
	c.prev = make([]uint8, len(c.zOff))
	c.fn = c.decodeColumns
	return c, nil
}

// Clone returns a cell over the same compiled circuit with its own
// sampler position, stream decoder, and backend scratch, for concurrent
// workers.
func (c *StreamMemoryCell) Clone() *StreamMemoryCell {
	n := *c
	n.bs = c.bs.Clone()
	sd, err := decoder.NewStreamDecoder(decoder.StreamConfig{
		Code: c.code, Basis: pauli.Z, Backend: c.sd.Backend().Clone(),
		WindowRounds: c.cfg.WindowRounds, BudgetCycles: c.cfg.BudgetCycles,
		BufferRounds: c.cfg.BufferRounds, Policy: c.cfg.Policy,
	})
	if err != nil {
		//xqlint:ignore nopanic the source cell validated this exact config; a failure here is a programming error
		panic(err)
	}
	n.sd = sd
	n.events = decoder.NewSyndromeBitmap(c.code)
	n.prev = make([]uint8, len(c.zOff))
	n.fn = n.decodeColumns
	return &n
}

// decodeColumns scores one 64-lane record block. A lane is replayed
// through the stream decoder only when some round's Z-flip column or the
// logical readout lights up; all-quiet lanes are guaranteed passes whose
// streamed windows would all decode empty at zero cycles.
func (c *StreamMemoryCell) decodeColumns(_, lanes int, cols []uint64) {
	laneMask := ^uint64(0)
	if lanes < 64 {
		laneMask = uint64(1)<<uint(lanes) - 1
	}
	var parity uint64
	for _, mi := range c.logicalMis {
		parity ^= cols[mi] ^ c.refMask[mi]
	}
	parity &= laneMask
	any := parity
	for r := 0; r < c.cfg.Rounds; r++ {
		base := r * c.roundLen
		for _, off := range c.zOff {
			mi := base + off
			any |= (cols[mi] ^ c.refMask[mi]) & laneMask
		}
	}
	for m := any; m != 0; m &= m - 1 {
		j := uint(bits.TrailingZeros64(m))
		c.sd.Reset()
		for k := range c.prev {
			c.prev[k] = 0
		}
		for r := 0; r < c.cfg.Rounds; r++ {
			base := r * c.roundLen
			c.events.Reset()
			hot := false
			for k, off := range c.zOff {
				mi := base + off
				flip := uint8((cols[mi] ^ c.refMask[mi]) >> j & 1)
				if flip != c.prev[k] {
					c.events.Set(c.zAnc[k])
					hot = true
				}
				c.prev[k] = flip
			}
			// The physical stream always advances; a dropped round just
			// never delivers its events to the decoder.
			if hot {
				c.sd.Round(c.events)
			} else {
				c.sd.Round(nil)
			}
		}
		res := c.sd.Finish()
		corr := false
		for _, q := range res.Flips {
			if q.Col == 0 {
				corr = !corr
			}
		}
		if (parity>>j&1 == 1) != corr {
			c.fails++
		}
		c.addStats(c.sd.Stats())
	}
}

// addStats folds one shot's stream accounting into the cell totals.
func (c *StreamMemoryCell) addStats(st decoder.StreamStats) {
	c.stats.Rounds += st.Rounds
	c.stats.Windows += st.Windows
	c.stats.DecodeCycles += st.DecodeCycles
	if st.MaxWindowCycles > c.stats.MaxWindowCycles {
		c.stats.MaxWindowCycles = st.MaxWindowCycles
	}
	c.stats.OverBudgetWindows += st.OverBudgetWindows
	if st.PeakBacklog > c.stats.PeakBacklog {
		c.stats.PeakBacklog = st.PeakBacklog
	}
	c.stats.DroppedRounds += st.DroppedRounds
	c.stats.BackpressureRounds += st.BackpressureRounds
}

// failsIn streams shots [start, start+n) and returns the failure count.
func (c *StreamMemoryCell) failsIn(start, n int) int {
	c.fails = 0
	c.bs.Seek(start)
	c.bs.SampleColumns(n, c.fn)
	return c.fails
}

// Run streams the first `shots` shots and returns the result. Repeated
// calls rewind the sampler and return the identical result.
func (c *StreamMemoryCell) Run(ctx context.Context, shots int) (StreamMemoryResult, error) {
	if shots <= 0 {
		return StreamMemoryResult{}, nil
	}
	if err := ctx.Err(); err != nil {
		return StreamMemoryResult{}, err
	}
	c.stats = decoder.StreamStats{}
	fails := c.failsIn(0, shots)
	return StreamMemoryResult{
		Rate:  float64(fails) / float64(shots),
		Shots: shots,
		Fails: fails,
		Stats: c.stats,
	}, nil
}

// StreamLogicalErrorRate measures the logical Z-memory error rate of a
// distance-d patch with the syndrome stream replayed in real time through
// a windowed decode backend. With BudgetCycles 0 (no latency pressure) it
// reproduces FrameLogicalErrorRate bit-for-bit (pinned by
// TestStreamMemoryMatchesFrame); with a finite budget, windows that
// overrun queue rounds in the syndrome buffer and the overflow policy
// turns the backlog into dropped rounds (degrading Rate) or backpressure.
// Shot k of seed s is fixed by the frame sampler's determinism contract,
// so the counts are identical under any worker scheduling.
func StreamLogicalErrorRate(ctx context.Context, cfg StreamMemoryConfig, shots int, seed int64) (StreamMemoryResult, error) {
	base, err := NewStreamMemoryCell(cfg, seed)
	if err != nil {
		return StreamMemoryResult{}, fmt.Errorf("core: stream logical error rate: %w", err)
	}
	if shots <= 0 {
		return StreamMemoryResult{}, nil
	}

	workers := runtime.GOMAXPROCS(0)
	if blocks := (shots + 63) / 64; workers > blocks {
		workers = blocks
	}
	var (
		mu     sync.Mutex
		out    StreamMemoryResult
		ctxErr bool
		next   int
		wg     sync.WaitGroup
	)
	// Clone every cell before any goroutine starts: Clone copies the base
	// cell, whose counters worker 0 writes while it samples.
	cells := make([]*StreamMemoryCell, workers)
	cells[0] = base
	for w := 1; w < workers; w++ {
		cells[w] = base.Clone()
	}
	for _, cell := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localFails := 0
			cell.stats = decoder.StreamStats{}
			for {
				mu.Lock()
				start := next
				next += 64
				mu.Unlock()
				if start >= shots {
					break
				}
				if ctx.Err() != nil {
					mu.Lock()
					ctxErr = true
					mu.Unlock()
					break
				}
				n := shots - start
				if n > 64 {
					n = 64
				}
				localFails += cell.failsIn(start, n)
			}
			mu.Lock()
			out.Fails += localFails
			cellStats := cell.stats
			st := &out.Stats
			st.Rounds += cellStats.Rounds
			st.Windows += cellStats.Windows
			st.DecodeCycles += cellStats.DecodeCycles
			if cellStats.MaxWindowCycles > st.MaxWindowCycles {
				st.MaxWindowCycles = cellStats.MaxWindowCycles
			}
			st.OverBudgetWindows += cellStats.OverBudgetWindows
			if cellStats.PeakBacklog > st.PeakBacklog {
				st.PeakBacklog = cellStats.PeakBacklog
			}
			st.DroppedRounds += cellStats.DroppedRounds
			st.BackpressureRounds += cellStats.BackpressureRounds
			mu.Unlock()
		}()
	}
	wg.Wait()
	if ctxErr {
		return StreamMemoryResult{}, ctx.Err()
	}
	out.Shots = shots
	out.Rate = float64(out.Fails) / float64(shots)
	return out, nil
}
