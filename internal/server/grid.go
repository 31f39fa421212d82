package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"xqsim/internal/store"
	"xqsim/internal/sweep"
)

// Grid-coordinator errors, mapped to HTTP statuses by the server layer.
var (
	// ErrUnknownGrid: no grid with that id was ever submitted.
	ErrUnknownGrid = errors.New("server: unknown grid")
	// ErrCellConflict: a cell was completed twice with different bytes —
	// a determinism violation the coordinator refuses to paper over.
	ErrCellConflict = errors.New("server: cell completed with conflicting result")
	// ErrLeaseHeld: another worker holds a live lease on the cell.
	ErrLeaseHeld = errors.New("server: cell leased by another worker")
	// ErrNoLease: the worker asked to renew a lease it does not hold.
	ErrNoLease = errors.New("server: no such lease")
	// ErrGridIncomplete: the merged result was requested before every
	// cell completed.
	ErrGridIncomplete = errors.New("server: grid not complete")
	// ErrGridCorrupt: a grid's cell or lease records in the store could
	// not be read or decoded. The grid is not served until the store is
	// repaired; guessing would hand out a live-leased cell again.
	ErrGridCorrupt = errors.New("server: grid store records unreadable")
)

// DefaultLeaseTTL is the lease lifetime when Config leaves it zero.
const DefaultLeaseTTL = 30 * time.Second

// gridLease is the durable lease record: who is working a cell and
// until when. Leases are ordinary store records, so a daemon restart
// (or kill -9) preserves them; a worker that dies simply stops
// renewing and its cells become leasable again at the deadline.
type gridLease struct {
	Worker string `json:"worker"`
	// DeadlineNs is the wall-clock expiry, unix nanoseconds.
	DeadlineNs int64 `json:"deadline_ns"`
	// Attempt counts how many times the cell has been leased; a cell on
	// attempt > 1 was reclaimed from a dead or straggling worker.
	Attempt int `json:"attempt"`
}

// GridStatus is a point-in-time public snapshot of one grid.
type GridStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Cells    int    `json:"cells"`
	Complete int    `json:"complete"`
	// Leased counts cells under a live (unexpired) lease.
	Leased int  `json:"leased"`
	Done   bool `json:"done"`
}

// LeasedCell is one unit of leased work handed to a worker.
type LeasedCell struct {
	Cell    sweep.Cell `json:"cell"`
	Attempt int        `json:"attempt"`
	// TTLMillis tells the worker how long it holds the lease; it should
	// renew well before, and must expect re-leasing after.
	TTLMillis int64 `json:"ttl_ms"`
}

// GridCoordinator serves work-stealing sweep grids over the durable
// store: grids are submitted once, workers lease cells with deadlines,
// push results idempotently, and the merged output is byte-identical
// to a single-process run.
//
// The store is the source of truth. Specs, leases and completed cells
// all live there, so the protocol survives daemon restarts. On top of
// it the coordinator keeps a per-grid in-memory index (gridState),
// built lazily from the store on the first touch of a grid and changed
// only after the store write it mirrors has succeeded. Lease, Renew,
// Complete and Status therefore cost O(live leases), not O(cells). The
// index is only sound because the coordinator is the sole writer of its
// store's gcell/ and glease/ keys; nothing else may write them while it
// runs.
//
// Store keys: grid/<id> holds the normalized spec, gcell/<id>/<index>
// the pinned cell-result bytes, glease/<id>/<index> the lease record.
type GridCoordinator struct {
	mu sync.Mutex
	st *store.Store
	// now is a test hook for lease-expiry time travel.
	now      func() time.Time
	leaseTTL time.Duration
	// grids indexes every grid touched since the coordinator started.
	grids map[string]*gridState
}

// gridState is the in-memory index of one grid. Every field is derived
// from the store: a build over the same store reproduces it exactly.
type gridState struct {
	spec  sweep.GridSpec
	cells int
	// done is the completed-cell bitset; complete counts its set bits.
	done     []uint64
	complete int
	// cursor is the lowest incomplete index (cells once the grid is
	// done). Only completions move it, so an expired lease below every
	// live one is still the first cell Lease finds.
	cursor int
	// leases holds the lease records of incomplete cells. A completed
	// cell's record is dropped even if its tombstone write fails: no
	// reader consults the lease of a completed cell.
	leases map[int]gridLease
}

func (gs *gridState) isDone(i int) bool { return gs.done[i/64]&(1<<(i%64)) != 0 }

// nextOpen returns the lowest incomplete index >= i, or cells.
func (gs *gridState) nextOpen(i int) int {
	for i < gs.cells {
		if w := ^gs.done[i/64] >> (i % 64); w != 0 {
			return min(i+bits.TrailingZeros64(w), gs.cells)
		}
		i = (i/64 + 1) * 64
	}
	return gs.cells
}

// markDone records cell i as complete and drops its lease record.
func (gs *gridState) markDone(i int) {
	gs.done[i/64] |= 1 << (i % 64)
	gs.complete++
	delete(gs.leases, i)
	gs.cursor = gs.nextOpen(gs.cursor)
}

func (gs *gridState) status(id string, nowNs int64) GridStatus {
	st := GridStatus{ID: id, Kind: gs.spec.Kind, Cells: gs.cells, Complete: gs.complete, Done: gs.complete == gs.cells}
	for _, l := range gs.leases {
		if l.DeadlineNs > nowNs {
			st.Leased++
		}
	}
	return st
}

// NewGridCoordinator serves grids over st with the given lease TTL
// (0 selects DefaultLeaseTTL).
func NewGridCoordinator(st *store.Store, leaseTTL time.Duration) *GridCoordinator {
	if leaseTTL <= 0 {
		leaseTTL = DefaultLeaseTTL
	}
	return &GridCoordinator{st: st, now: time.Now, leaseTTL: leaseTTL, grids: make(map[string]*gridState)}
}

func gridKey(id string) string         { return "grid/" + id }
func cellKey(id string, i int) string  { return fmt.Sprintf("gcell/%s/%06d", id, i) }
func leaseKey(id string, i int) string { return fmt.Sprintf("glease/%s/%06d", id, i) }

// Create registers a grid. The id is the normalized spec's content
// hash, so resubmitting the same study is a no-op returning the same
// id (created = false).
func (gc *GridCoordinator) Create(spec sweep.GridSpec) (id string, created bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return "", false, err
	}
	id = norm.Hash()

	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.st.Has(gridKey(id)) {
		return id, false, nil
	}
	raw, err := json.Marshal(norm)
	if err != nil {
		return "", false, fmt.Errorf("server: encode grid spec: %w", err)
	}
	if err := gc.st.Put(gridKey(id), raw); err != nil {
		return "", false, err
	}
	return id, true, nil
}

// Spec returns a grid's normalized spec: from the index once the grid
// is indexed, else decoded from the store (without indexing the grid).
func (gc *GridCoordinator) Spec(id string) (sweep.GridSpec, error) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gs, ok := gc.grids[id]; ok {
		return gs.spec, nil
	}
	return gc.readSpec(id)
}

func (gc *GridCoordinator) readSpec(id string) (sweep.GridSpec, error) {
	raw, ok, err := gc.st.Get(gridKey(id))
	if err != nil {
		return sweep.GridSpec{}, err
	}
	if !ok {
		return sweep.GridSpec{}, ErrUnknownGrid
	}
	var g sweep.GridSpec
	if err := json.Unmarshal(raw, &g); err != nil {
		return sweep.GridSpec{}, fmt.Errorf("server: decode grid spec: %w", err)
	}
	return g, nil
}

// stateLocked returns the grid's index, building it on first touch.
// A failed build is not cached: the next call reads the store again.
func (gc *GridCoordinator) stateLocked(id string) (*gridState, error) {
	if gs, ok := gc.grids[id]; ok {
		return gs, nil
	}
	g, err := gc.readSpec(id)
	if err != nil {
		return nil, err
	}
	n := g.NumCells()
	gs := &gridState{spec: g, cells: n, done: make([]uint64, (n+63)/64), leases: make(map[int]gridLease)}
	// The one O(cells) pass: the same reads a status scan makes. An
	// unreadable lease record fails the build rather than making a
	// leased cell look free.
	for i := 0; i < n; i++ {
		if gc.st.Has(cellKey(id, i)) {
			gs.markDone(i)
			continue
		}
		raw, ok, err := gc.st.Get(leaseKey(id, i))
		if err != nil {
			return nil, fmt.Errorf("%w: grid %s cell %d: %w", ErrGridCorrupt, id, i, err)
		}
		if !ok {
			continue
		}
		var l gridLease
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("%w: grid %s cell %d: decode lease: %w", ErrGridCorrupt, id, i, err)
		}
		gs.leases[i] = l
	}
	gc.grids[id] = gs
	return gs, nil
}

// Lease hands the requesting worker up to max incomplete cells that
// are not under a live lease, lowest index first, and records a
// durable lease (deadline = now + TTL) for each. A cell whose previous
// lease expired is re-leased with an incremented attempt — that is the
// work-stealing path that rescues cells from killed or straggling
// workers. An empty cell list with done=false means everything left is
// leased out: poll again later.
func (gc *GridCoordinator) Lease(id, worker string, max int) ([]LeasedCell, GridStatus, error) {
	if max <= 0 {
		max = 1
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	gs, err := gc.stateLocked(id)
	if err != nil {
		return nil, GridStatus{}, err
	}
	nowNs := gc.now().UnixNano()
	var out []LeasedCell
	for i := gs.nextOpen(gs.cursor); i < gs.cells && len(out) < max; i = gs.nextOpen(i + 1) {
		attempt := 1
		if l, ok := gs.leases[i]; ok {
			live := l.DeadlineNs > nowNs
			if live && l.Worker != worker {
				continue // live lease held elsewhere
			}
			attempt = l.Attempt + 1
			if live {
				// Re-leasing to the same worker (e.g. it restarted
				// fast) extends rather than escalates.
				attempt = l.Attempt
			}
		}
		l := gridLease{Worker: worker, DeadlineNs: nowNs + gc.leaseTTL.Nanoseconds(), Attempt: attempt}
		raw, err := json.Marshal(l)
		if err != nil {
			return nil, GridStatus{}, fmt.Errorf("server: encode lease: %w", err)
		}
		if err := gc.st.Put(leaseKey(id, i), raw); err != nil {
			return nil, GridStatus{}, err
		}
		gs.leases[i] = l
		out = append(out, LeasedCell{Cell: gs.spec.Cell(i), Attempt: attempt, TTLMillis: gc.leaseTTL.Milliseconds()})
	}
	return out, gs.status(id, nowNs), nil
}

// Renew extends the worker's lease on a cell by one TTL from now.
func (gc *GridCoordinator) Renew(id, worker string, index int) error {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	gs, err := gc.stateLocked(id)
	if err != nil {
		return err
	}
	if index < 0 || index >= gs.cells {
		return fmt.Errorf("server: cell index %d out of range [0, %d)", index, gs.cells)
	}
	l, ok := gs.leases[index]
	if !ok {
		return ErrNoLease
	}
	if l.Worker != worker {
		return fmt.Errorf("%w (held by %q)", ErrLeaseHeld, l.Worker)
	}
	l.DeadlineNs = gc.now().UnixNano() + gc.leaseTTL.Nanoseconds()
	raw, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("server: encode lease: %w", err)
	}
	if err := gc.st.Put(leaseKey(id, index), raw); err != nil {
		return err
	}
	gs.leases[index] = l
	return nil
}

// Complete records one cell's pinned result bytes. Completion is
// idempotent and lease-free by design: a worker whose lease expired
// mid-cell (and whose cell was re-leased) may still push — both
// completions carry the identical bytes because cells are
// deterministic, and the first write wins. Bytes that disagree with an
// existing record are rejected (ErrCellConflict) instead of silently
// replacing it.
func (gc *GridCoordinator) Complete(id string, index int, payload []byte) (GridStatus, error) {
	cell, err := sweep.UnmarshalCell(payload)
	if err != nil {
		return GridStatus{}, err
	}
	canonical, err := sweep.MarshalCell(cell)
	if err != nil {
		return GridStatus{}, err
	}

	gc.mu.Lock()
	defer gc.mu.Unlock()
	gs, err := gc.stateLocked(id)
	if err != nil {
		return GridStatus{}, err
	}
	if cell.Index != index {
		return GridStatus{}, fmt.Errorf("server: payload is cell %d, url names cell %d", cell.Index, index)
	}
	if err := gs.spec.ValidateCell(cell); err != nil {
		return GridStatus{}, err
	}
	if gs.isDone(index) {
		prev, ok, err := gc.st.Get(cellKey(id, index))
		if err != nil {
			return GridStatus{}, err
		}
		if !ok {
			return GridStatus{}, fmt.Errorf("%w: grid %s cell %d is indexed complete but has no record", ErrGridCorrupt, id, index)
		}
		if !bytes.Equal(prev, canonical) {
			return GridStatus{}, fmt.Errorf("%w: cell %d", ErrCellConflict, index)
		}
		// Idempotent duplicate: already durable, nothing to do.
		return gs.status(id, gc.now().UnixNano()), nil
	}
	// Result durable before the lease is released: a crash between the
	// two leaves a stale lease that the index build ignores.
	if err := gc.st.Put(cellKey(id, index), canonical); err != nil {
		return GridStatus{}, err
	}
	_, leased := gs.leases[index]
	gs.markDone(index)
	if leased {
		if err := gc.st.Delete(leaseKey(id, index)); err != nil {
			return GridStatus{}, err
		}
	}
	return gs.status(id, gc.now().UnixNano()), nil
}

// Status snapshots one grid's progress.
func (gc *GridCoordinator) Status(id string) (GridStatus, error) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	gs, err := gc.stateLocked(id)
	if err != nil {
		return GridStatus{}, err
	}
	return gs.status(id, gc.now().UnixNano()), nil
}

// Grids lists every known grid in id order. A grid whose spec cannot
// be read is skipped; one whose cell or lease records cannot be read
// fails the listing (ErrGridCorrupt).
func (gc *GridCoordinator) Grids() ([]GridStatus, error) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	nowNs := gc.now().UnixNano()
	var out []GridStatus
	for _, key := range gc.st.Keys() {
		if len(key) <= 5 || key[:5] != "grid/" {
			continue
		}
		id := key[5:]
		gs, err := gc.stateLocked(id)
		if errors.Is(err, ErrGridCorrupt) {
			return nil, err
		}
		if err != nil {
			continue
		}
		out = append(out, gs.status(id, nowNs))
	}
	return out, nil
}

// Result assembles the finished grid's canonical JSONL: the header
// line plus every cell ascending by index — byte-identical to what
// `xqsweep -grid … -jsonl` writes in a single process, because both
// sides render the same pinned records in the same order.
func (gc *GridCoordinator) Result(id string) ([]byte, error) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	gs, err := gc.stateLocked(id)
	if err != nil {
		return nil, err
	}
	if gs.complete < gs.cells {
		return nil, fmt.Errorf("%w: cell %d of %d missing", ErrGridIncomplete, gs.cursor, gs.cells)
	}
	cells := make([]sweep.CellResult, 0, gs.cells)
	for i := 0; i < gs.cells; i++ {
		raw, ok, err := gc.st.Get(cellKey(id, i))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: grid %s cell %d is indexed complete but has no record", ErrGridCorrupt, id, i)
		}
		c, err := sweep.UnmarshalCell(raw)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	var buf bytes.Buffer
	if err := sweep.WriteGridJSONL(&buf, gs.spec, cells); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
