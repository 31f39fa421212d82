package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xqsim/internal/store"
	"xqsim/internal/sweep"
)

// scannedCell is one cell as the store holds it: complete, or carrying
// the lease record (nil when none).
type scannedCell struct {
	complete bool
	lease    *gridLease
}

// scanGrid is the store-scan oracle: it reads every cell's records
// straight from the store, failing the test on any unreadable record.
func scanGrid(t *testing.T, st *store.Store, id string, n int) []scannedCell {
	t.Helper()
	cells := make([]scannedCell, n)
	for i := range cells {
		if st.Has(cellKey(id, i)) {
			cells[i].complete = true
			continue
		}
		raw, ok, err := st.Get(leaseKey(id, i))
		if err != nil {
			t.Fatalf("scan cell %d: %v", i, err)
		}
		if !ok {
			continue
		}
		var l gridLease
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("scan cell %d: %v", i, err)
		}
		cells[i].lease = &l
	}
	return cells
}

// scanStatus is a grid's status computed from a store scan.
func scanStatus(id string, g sweep.GridSpec, cells []scannedCell, nowNs int64) GridStatus {
	st := GridStatus{ID: id, Kind: g.Kind, Cells: len(cells)}
	for _, c := range cells {
		switch {
		case c.complete:
			st.Complete++
		case c.lease != nil && c.lease.DeadlineNs > nowNs:
			st.Leased++
		}
	}
	st.Done = st.Complete == st.Cells
	return st
}

// eligible lists, lowest index first, the cells a Lease by worker may
// take, with the attempt each would be issued at.
func eligible(cells []scannedCell, worker string, nowNs int64) (idx, attempts []int) {
	for i, c := range cells {
		if c.complete {
			continue
		}
		attempt := 1
		if l := c.lease; l != nil {
			live := l.DeadlineNs > nowNs
			if live && l.Worker != worker {
				continue
			}
			attempt = l.Attempt + 1
			if live {
				attempt = l.Attempt
			}
		}
		idx = append(idx, i)
		attempts = append(attempts, attempt)
	}
	return idx, attempts
}

// TestGridIndexMatchesStore drives a coordinator through a seeded
// random sequence of leases, renewals, completions (duplicates
// included), lease-expiring clock jumps and restarts. After every
// operation its Status must equal both a coordinator freshly built
// over the same store and a direct scan of the store, and every lease
// must hand out the lowest eligible cells at the scan's attempts.
func TestGridIndexMatchesStore(t *testing.T) {
	const ttl = 10 * time.Second
	// 32 cells: about as many as ~100 random completions fill, so the
	// sequence spends time at every stage of a grid's life.
	ps := make([]float64, 32)
	for i := range ps {
		ps[i] = 0.001 * float64(i+1)
	}
	g, err := sweep.GridSpec{Kind: sweep.GridThreshold, Ds: []int{3}, Ps: ps, Trials: 4, Seed: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumCells()
	payloads := make([][]byte, n)
	for i := range payloads {
		r, _, err := sweep.RunGridCell(context.Background(), g, g.Cell(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if payloads[i], err = sweep.MarshalCell(r); err != nil {
			t.Fatal(err)
		}
	}

	ops := 400
	if testing.Short() {
		ops = 150
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "grids.log")
			now := time.Unix(1000, 0)
			clock := func() time.Time { return now }
			open := func() (*store.Store, *GridCoordinator) {
				st, err := store.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				gc := NewGridCoordinator(st, ttl)
				gc.now = clock
				return st, gc
			}
			st, gc := open()
			defer func() { _ = st.Close() }()
			id, _, err := gc.Create(g)
			if err != nil {
				t.Fatal(err)
			}
			workers := []string{"w0", "w1", "w2"}

			for op := 0; op < ops; op++ {
				nowNs := now.UnixNano()
				var what string
				switch k := rng.Intn(20); {
				case k < 7:
					w, max := workers[rng.Intn(len(workers))], 1+rng.Intn(3)
					what = fmt.Sprintf("lease %s max %d", w, max)
					wantIdx, wantAttempts := eligible(scanGrid(t, st, id, n), w, nowNs)
					got, _, err := gc.Lease(id, w, max)
					if err != nil {
						t.Fatalf("op %d %s: %v", op, what, err)
					}
					if len(got) != min(max, len(wantIdx)) {
						t.Fatalf("op %d %s: got %d cells, want %d of eligible %v", op, what, len(got), min(max, len(wantIdx)), wantIdx)
					}
					for j, c := range got {
						if c.Cell.Index != wantIdx[j] || c.Attempt != wantAttempts[j] {
							t.Fatalf("op %d %s: cell %d is index %d attempt %d, want index %d attempt %d",
								op, what, j, c.Cell.Index, c.Attempt, wantIdx[j], wantAttempts[j])
						}
					}
				case k < 10:
					// Half the renewals come from a lease's holder, so that
					// most of those succeed.
					cells := scanGrid(t, st, id, n)
					w, i := workers[rng.Intn(len(workers))], rng.Intn(n)
					var held []int
					for j, c := range cells {
						if c.lease != nil {
							held = append(held, j)
						}
					}
					if len(held) > 0 && rng.Intn(2) == 0 {
						i = held[rng.Intn(len(held))]
						w = cells[i].lease.Worker
					}
					what = fmt.Sprintf("renew %s cell %d", w, i)
					var want error
					switch l := cells[i].lease; {
					case l == nil:
						want = ErrNoLease
					case l.Worker != w:
						want = ErrLeaseHeld
					}
					if err := gc.Renew(id, w, i); !errors.Is(err, want) {
						t.Fatalf("op %d %s: err %v, want %v", op, what, err, want)
					}
				case k < 15:
					i := rng.Intn(n)
					what = fmt.Sprintf("complete cell %d", i)
					if _, err := gc.Complete(id, i, payloads[i]); err != nil {
						t.Fatalf("op %d %s: %v", op, what, err)
					}
				case k < 17:
					d := time.Duration(1+rng.Intn(4)) * time.Second
					what = fmt.Sprintf("advance %v", d)
					now = now.Add(d)
				case k < 18:
					what = "advance past the TTL"
					now = now.Add(ttl + time.Second)
				default:
					what = "restart"
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					st, gc = open()
				}

				nowNs = now.UnixNano()
				live, err := gc.Status(id)
				if err != nil {
					t.Fatalf("op %d %s: status: %v", op, what, err)
				}
				fresh := NewGridCoordinator(st, ttl)
				fresh.now = clock
				rebuilt, err := fresh.Status(id)
				if err != nil {
					t.Fatalf("op %d %s: rebuilt status: %v", op, what, err)
				}
				scanned := scanStatus(id, g, scanGrid(t, st, id, n), nowNs)
				if live != rebuilt || live != scanned {
					t.Fatalf("op %d %s: live status %+v, rebuilt %+v, store scan %+v", op, what, live, rebuilt, scanned)
				}
			}
		})
	}
}

// TestGridConcurrentWorkers has four workers lease and complete one
// grid at once under a TTL no run outlives: every cell must be leased
// exactly once, at attempt 1, and the grid must finish.
func TestGridConcurrentWorkers(t *testing.T) {
	gc, _ := gridT(t, t.TempDir(), time.Hour)
	ps := make([]float64, 40)
	for i := range ps {
		ps[i] = 0.001
	}
	g, err := sweep.GridSpec{Kind: sweep.GridThreshold, Ds: []int{3}, Ps: ps, Trials: 8, Seed: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := gc.Create(g)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, g.NumCells())
	for i := range payloads {
		c := g.Cell(i)
		if payloads[i], err = sweep.MarshalCell(sweep.CellResult{Index: i, D: c.D, P: c.P, Rounds: c.Rounds, Trials: c.Trials, Seed: c.Seed}); err != nil {
			t.Fatal(err)
		}
	}
	leased := make([][]LeasedCell, 4)
	errs := make(chan error, len(leased))
	for w := range leased {
		go func() {
			for {
				cells, st, err := gc.Lease(id, fmt.Sprintf("w%d", w), 2)
				if err != nil || st.Done || len(cells) == 0 {
					errs <- err
					return
				}
				leased[w] = append(leased[w], cells...)
				for _, c := range cells {
					if _, err := gc.Complete(id, c.Cell.Index, payloads[c.Cell.Index]); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	for range leased {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]bool)
	for _, cells := range leased {
		for _, c := range cells {
			if seen[c.Cell.Index] || c.Attempt != 1 {
				t.Errorf("cell %d leased again (attempt %d)", c.Cell.Index, c.Attempt)
			}
			seen[c.Cell.Index] = true
		}
	}
	if st, err := gc.Status(id); err != nil || !st.Done || len(seen) != g.NumCells() {
		t.Errorf("status %+v err %v after %d leased cells", st, err, len(seen))
	}
}

// TestGridBadLeaseRecordFailsLoudly: an undecodable lease record must
// fail the grid's Lease and Status (a 500 over HTTP), not make its cell
// look free and hand it out again at attempt 1.
func TestGridBadLeaseRecordFailsLoudly(t *testing.T) {
	sched := newT(t, Config{Workers: 1})
	defer drainT(t, sched)
	g := gridSpecT(t)
	id, _, err := sched.Grids().Create(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.st.Put(leaseKey(id, 1), []byte("{not json")); err != nil {
		t.Fatal(err)
	}

	gc := NewGridCoordinator(sched.st, 0)
	for name, call := range map[string]func() error{
		"Lease":  func() error { _, _, err := gc.Lease(id, "w1", 3); return err },
		"Status": func() error { _, err := gc.Status(id); return err },
		"Grids":  func() error { _, err := gc.Grids(); return err },
	} {
		err := call()
		if !errors.Is(err, ErrGridCorrupt) || !strings.Contains(err.Error(), id) || !strings.Contains(err.Error(), "cell 1") {
			t.Errorf("%s over a garbage lease record: err %v, want ErrGridCorrupt naming grid %s cell 1", name, err, id)
		}
	}

	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/grids/"+id+"/lease", "application/json", strings.NewReader(`{"worker":"w1","max":3}`))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("POST lease over a garbage lease record = %d, want 500", resp.StatusCode)
	}
	if code := getJSON(t, ts, "/grids/"+id, nil); code != http.StatusInternalServerError {
		t.Errorf("GET status over a garbage lease record = %d, want 500", code)
	}
}

// BenchmarkGridLeaseComplete times one lease then one complete on a
// grid whose cells are all complete but the last benchOpen: the
// coordinator's per-cell cost, which should not grow with the grid.
func BenchmarkGridLeaseComplete(b *testing.B) {
	for _, n := range []int{256, 4096} {
		dir := b.TempDir()
		id, payloads := benchGridTemplate(b, filepath.Join(dir, "template.log"), n)
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			var (
				st   *store.Store
				gc   *GridCoordinator
				left int
			)
			// reset reopens a fresh copy of the template, indexing it
			// outside the timed loop.
			reset := func() {
				if st != nil {
					if err := st.Close(); err != nil {
						b.Fatal(err)
					}
				}
				path := filepath.Join(dir, "run.log")
				_ = os.Remove(path + ".idx")
				copyFileB(b, filepath.Join(dir, "template.log"), path)
				var err error
				if st, err = store.Open(path); err != nil {
					b.Fatal(err)
				}
				gc = NewGridCoordinator(st, 0)
				if _, err := gc.Status(id); err != nil {
					b.Fatal(err)
				}
				left = benchOpen
			}
			reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if left == 0 {
					b.StopTimer()
					reset()
					b.StartTimer()
				}
				cells, _, err := gc.Lease(id, "bench", 1)
				if err != nil || len(cells) != 1 {
					b.Fatalf("lease: %d cells, err %v", len(cells), err)
				}
				k := cells[0].Cell.Index
				if _, err := gc.Complete(id, k, payloads[k]); err != nil {
					b.Fatal(err)
				}
				left--
			}
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchOpen is how many cells the benchmark grid leaves incomplete.
const benchOpen = 64

// benchGridTemplate writes an n-cell grid with all but the last
// benchOpen cells complete to the store at path. The payloads carry
// the spec's parameters and a zero rate: the coordinator validates
// identity fields, not measured values.
func benchGridTemplate(b *testing.B, path string, n int) (string, [][]byte) {
	b.Helper()
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 0.001
	}
	g, err := sweep.GridSpec{Kind: sweep.GridThreshold, Ds: []int{3}, Ps: ps, Trials: 8, Seed: 1}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	gc := NewGridCoordinator(st, 0)
	id, _, err := gc.Create(g)
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		c := g.Cell(i)
		if payloads[i], err = sweep.MarshalCell(sweep.CellResult{Index: i, D: c.D, P: c.P, Rounds: c.Rounds, Trials: c.Trials, Seed: c.Seed}); err != nil {
			b.Fatal(err)
		}
		if i < n-benchOpen {
			if _, err := gc.Complete(id, i, payloads[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return id, payloads
}

func copyFileB(b *testing.B, src, dst string) {
	b.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		b.Fatal(err)
	}
}
