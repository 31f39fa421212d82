package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"xqsim/internal/decoder"
	"xqsim/internal/pauli"
	"xqsim/internal/stab"
	"xqsim/internal/surface"
)

// FrameMemoryCell is one compiled circuit-level memory-experiment cell:
// the gate-level memory circuit (surface.MemoryCircuit with depolarizing
// strength p after every two-qubit gate and readout flip probability p)
// compiled once into the bit-sliced batch frame sampler, plus every
// decode index and scratch buffer the shot loop needs. Rate draws shots
// 64 per machine word and decodes only the lanes that light up, so the
// steady-state cell costs zero heap allocations (pinned by
// TestFrameMemoryCellSteadyStateAllocs).
//
// A cell is single-goroutine; Clone gives each worker its own sampler
// position and scratch over the shared compiled op-stream.
type FrameMemoryCell struct {
	code surface.Code
	bs   *stab.BatchFrameSampler

	// zMis/zAnc are the final-round Z-plaquette measurement indices and
	// their plaquette cells — the decode syndrome. (The final ESM round
	// is noise-free, so its flips are the accumulated data-error
	// parities, the same telescoped detection-event sum the
	// window-parity decode uses.)
	zMis []int           //xqlint:shared immutable decode indices built at construction
	zAnc []surface.Coord //xqlint:shared immutable decode indices built at construction
	// logicalMis are the data-readout measurement indices on the
	// logical-Z support.
	logicalMis []int //xqlint:shared immutable decode indices built at construction
	// refMask broadcasts each reference bit across all 64 lanes, so
	// flip column = record column XOR refMask.
	refMask []uint64 //xqlint:shared write-once reference mask shared by every worker

	syn   *decoder.SyndromeBitmap
	sc    decoder.Scratch
	res   decoder.Result
	fails int
	// fn is the column callback bound once at construction, so the hot
	// loop never materializes a new closure.
	fn func(base, lanes int, cols []uint64)
}

// NewFrameMemoryCell compiles the distance-d memory experiment with
// `rounds` syndrome rounds at physical error rate p. Shot k is fixed by
// the frame sampler's determinism contract for the given seed.
func NewFrameMemoryCell(d int, p float64, rounds int, seed int64) (*FrameMemoryCell, error) {
	if d < 3 || d%2 == 0 {
		return nil, fmt.Errorf("core: frame memory cell: invalid code distance %d", d)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("core: frame memory cell: rounds must be >= 1, got %d", rounds)
	}
	code := surface.NewCode(d)
	circ := code.MemoryCircuit(rounds, p, p)
	bs, err := stab.NewBatchFrameSampler(circ, seed)
	if err != nil {
		return nil, fmt.Errorf("core: frame memory cell: %w", err)
	}
	c := &FrameMemoryCell{code: code, bs: bs, syn: decoder.NewSyndromeBitmap(code)}
	stabs := code.Stabilizers()
	finalBase := (rounds - 1) * len(stabs)
	for i, st := range stabs {
		if st.Basis == pauli.Z {
			c.zMis = append(c.zMis, finalBase+i)
			c.zAnc = append(c.zAnc, st.Anc)
		}
	}
	dataBase := rounds * len(stabs)
	for _, q := range code.LogicalZ() {
		c.logicalMis = append(c.logicalMis, dataBase+code.DataIndex(q))
	}
	c.refMask = make([]uint64, bs.Measurements())
	for i := range c.refMask {
		if bs.RefBit(i) {
			c.refMask[i] = ^uint64(0)
		}
	}
	c.fn = c.decodeColumns
	return c, nil
}

// Clone returns a cell over the same compiled circuit with its own
// sampler position and decode scratch, for concurrent workers.
func (c *FrameMemoryCell) Clone() *FrameMemoryCell {
	n := *c
	n.bs = c.bs.Clone()
	n.syn = decoder.NewSyndromeBitmap(c.code)
	n.sc = decoder.Scratch{}
	n.res = decoder.Result{}
	n.fn = n.decodeColumns
	return &n
}

// decodeColumns scores one 64-lane record block: a lane fails when the
// decoder's correction does not cancel the data readout's logical-Z
// flip. Only lanes with a detection event or a logical flip can fail, so
// the loop word-skips straight to them; everything else is a guaranteed
// pass — at sub-threshold error rates most blocks cost three XOR sweeps
// and no decode at all.
func (c *FrameMemoryCell) decodeColumns(_, lanes int, cols []uint64) {
	laneMask := ^uint64(0)
	if lanes < 64 {
		laneMask = uint64(1)<<uint(lanes) - 1
	}
	// Logical-Z flip parity of all 64 lanes at once.
	var parity uint64
	for _, mi := range c.logicalMis {
		parity ^= cols[mi] ^ c.refMask[mi]
	}
	parity &= laneMask
	any := parity
	for _, mi := range c.zMis {
		any |= (cols[mi] ^ c.refMask[mi]) & laneMask
	}
	for m := any; m != 0; m &= m - 1 {
		j := uint(bits.TrailingZeros64(m))
		c.syn.Reset()
		hot := 0
		for k, mi := range c.zMis {
			if (cols[mi]^c.refMask[mi])>>j&1 == 1 {
				c.syn.Set(c.zAnc[k])
				hot++
			}
		}
		corr := false
		if hot > 0 {
			decoder.DecodePatchInto(c.code, pauli.Z, c.syn, &c.sc, &c.res)
			for _, q := range c.res.Flips {
				if q.Col == 0 {
					corr = !corr
				}
			}
		}
		if (parity>>j&1 == 1) != corr {
			c.fails++
		}
	}
}

// failsIn decodes shots [start, start+n) and returns the failure count.
func (c *FrameMemoryCell) failsIn(start, n int) int {
	c.fails = 0
	c.bs.Seek(start)
	c.bs.SampleColumns(n, c.fn)
	return c.fails
}

// Rate samples the first `shots` shots of the cell's stream and returns
// the logical failure fraction. Repeated calls rewind the sampler and
// return the identical rate.
func (c *FrameMemoryCell) Rate(ctx context.Context, shots int) (float64, error) {
	if shots <= 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return float64(c.failsIn(0, shots)) / float64(shots), nil
}

// FrameLogicalErrorRate measures the logical Z-memory error rate of a
// distance-d patch under circuit-level noise by direct batch frame
// sampling through a FrameMemoryCell compiled once and cloned per
// worker — no per-shot []bool is ever materialized.
//
// This is the circuit-level counterpart of LogicalErrorRate (which
// drives the microarchitectural backend's phenomenological model).
// Shot k of seed s is fixed by the frame sampler's determinism
// contract, so the rate is a pure count: identical under any worker
// scheduling, and any single shot replays via stab.FrameSampler.
// SampleShot on the same circuit and seed.
func FrameLogicalErrorRate(ctx context.Context, d int, p float64, rounds, shots int, seed int64) (float64, error) {
	base, err := NewFrameMemoryCell(d, p, rounds, seed)
	if err != nil {
		return 0, fmt.Errorf("core: frame logical error rate: %w", err)
	}
	if shots <= 0 {
		return 0, nil
	}

	workers := runtime.GOMAXPROCS(0)
	if blocks := (shots + 63) / 64; workers > blocks {
		workers = blocks
	}
	var (
		fails, nextBlock atomic.Int64
		ctxErr           atomic.Bool
		wg               sync.WaitGroup
	)
	// Clone every cell before any goroutine starts: Clone copies the base
	// cell, whose counters worker 0 writes while it samples.
	cells := make([]*FrameMemoryCell, workers)
	cells[0] = base
	for w := 1; w < workers; w++ {
		cells[w] = base.Clone()
	}
	for _, cell := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localFails := 0
			for {
				b := int(nextBlock.Add(1)) - 1
				start := b * 64
				if start >= shots {
					break
				}
				if ctx.Err() != nil {
					ctxErr.Store(true)
					break
				}
				n := shots - start
				if n > 64 {
					n = 64
				}
				localFails += cell.failsIn(start, n)
			}
			fails.Add(int64(localFails))
		}()
	}
	wg.Wait()
	if ctxErr.Load() {
		return 0, ctx.Err()
	}
	return float64(fails.Load()) / float64(shots), nil
}
