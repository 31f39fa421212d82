package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xqsim/internal/server"
	"xqsim/internal/store"
	"xqsim/internal/sweep"
	"xqsim/internal/xrand"
)

// The xqd-mixed grid: cheap d=3 cells at the paper's p=0.1%, where a
// cell computes in ~0.15 ms and the lease/complete round trip through
// HTTP, the grid coordinator and the store's fsyncs is the work. The job
// list is sized so that, on the 2-core host the benchmark was tuned on,
// it takes about as long as the grid.
const (
	xqdCellsPerSecond = 64
	xqdJobsPerSecond  = 40
	xqdD              = 3
	xqdP              = 0.001
	xqdTrials         = 64
	pollInterval      = 2 * time.Millisecond
	xqdSetupBatch     = 50
)

// estimateTechs are the technologies an estimate job accepts.
var estimateTechs = []string{"300k-cmos", "4k-cmos", "rsfq", "ersfq"}

// listedJob is one submission of the job client; dup is the index of the
// earlier submission it repeats, or -1 for new work.
type listedJob struct {
	spec server.JobSpec
	dup  int
}

// jobList is the job client's fixed list, made from the run's seed and
// --seconds. There is no recorded xqd traffic to replay, so the specs
// are the documented ones: every odd submission repeats an earlier new
// job; the first four new jobs are the README's estimate request
// (nphys 10000, d 15, also the server's estimate defaults), once per
// technology; every later new job is a simulate job at the server's
// defaults (random workload, 4 logical qubits, 10 PPRs, d 3, 256 shots)
// with its own seed, the one field a submitter has to choose.
func jobList(cfg runConfig) []listedJob {
	rng := rand.New(rand.NewSource(cfg.derive(3)))
	seeds := cfg.derive(4)
	n := max(minUnits, xqdJobsPerSecond*cfg.seconds)
	jobs := make([]listedJob, n)
	var fresh []int
	for k := range jobs {
		switch {
		case k%2 == 1:
			d := fresh[rng.Intn(len(fresh))]
			jobs[k] = listedJob{jobs[d].spec, d}
			continue
		case len(fresh) < len(estimateTechs):
			jobs[k] = listedJob{server.JobSpec{Kind: "estimate", Tech: estimateTechs[len(fresh)], NPhys: 10000, D: 15}, -1}
		default:
			jobs[k] = listedJob{server.JobSpec{Kind: "simulate", Seed: 1 + xrand.Mix(seeds, uint64(k))&(1<<40-1)}, -1}
		}
		fresh = append(fresh, k)
	}
	return jobs
}

func xqdGrid(cfg runConfig) (sweep.GridSpec, error) {
	ps := make([]float64, max(minUnits, xqdCellsPerSecond*cfg.seconds))
	for i := range ps {
		ps[i] = xqdP
	}
	return sweep.GridSpec{Kind: sweep.GridThreshold, Ds: []int{xqdD}, Ps: ps, Trials: xqdTrials, Seed: cfg.derive(2)}.Normalize()
}

// xqd is one in-process daemon on a loopback listener.
type xqd struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

// startXQD builds the daemon the way cmd/xqd does: server.New over a
// data dir, server.NewServer, a listener, and Serve.
func startXQD(dir string) (*xqd, error) {
	sched, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	srv := server.NewServer(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	x := &xqd{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { x.served <- x.hs.Serve(ln) }()
	return x, nil
}

// stop shuts the listener down, waits for Serve to return, and drains
// the scheduler (which closes the store).
func (x *xqd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := x.hs.Shutdown(ctx)
	if serr := <-x.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, x.srv.Drain(ctx))
}

// client is one closed-loop client goroutine with its own connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// want checks a response's status.
func want(code int, body []byte, err error, ok ...int) error {
	if err != nil {
		return err
	}
	for _, c := range ok {
		if code == c {
			return nil
		}
	}
	return fmt.Errorf("HTTP %d: %s", code, bytes.TrimSpace(body))
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func runXQD(cfg runConfig, rep *report) error {
	g, err := xqdGrid(cfg)
	if err != nil {
		return err
	}
	n := 0
	su := &setups{what: "server.New + server.NewServer + listen + first /healthz on a fresh dir", fn: func() error {
		n++
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", n))
		x, err := startXQD(dir)
		if err != nil {
			return err
		}
		c := newClient(x.base)
		code, body, err := c.do("GET", "/healthz", nil)
		c.close()
		return errors.Join(want(code, body, err, http.StatusOK), x.stop(), os.RemoveAll(dir))
	}}
	// The clients run concurrently, so set-ups are timed in two batches,
	// before and after the loop, instead of between units.
	if err := su.run(xqdSetupBatch); err != nil {
		return err
	}
	x, err := startXQD(filepath.Join(cfg.dir, "xqd"))
	if err != nil {
		return err
	}
	jobs := jobList(cfg)
	fmt.Printf("grid: %d cells, d=%d, p=%g, %d trials, seed %d; jobs: %d, half duplicates, from seeds %d and %d\n",
		g.NumCells(), xqdD, xqdP, xqdTrials, g.Seed, len(jobs), cfg.derive(3), cfg.derive(4))
	m, loopErr := mixedLoop(cfg, rep, x, g, jobs)
	if err := errors.Join(loopErr, x.stop()); err != nil {
		return err
	}
	if err := errors.Join(su.run(xqdSetupBatch), su.report(rep)); err != nil {
		return err
	}
	if cfg.trace {
		return traceXQD(cfg, rep, g, m)
	}
	rep.pct("unit_p50_ms", m.rtts, 0.5, 1, "ms")
	rep.pct("lease_rtt_p90_ms", m.rtts, 0.9, 1, "ms")
	rep.pct("lease_rtt_p99_ms", m.rtts, 0.99, 1, "ms")
	rep.pct("job_p50_ms", m.jobs, 0.5, 1, "ms")
	rep.pct("job_p90_ms", m.jobs, 0.9, 1, "ms")
	rep.metric("jobs", float64(len(m.jobs)), "count", len(m.jobs), fmt.Sprintf("%d answered from cache", m.cacheHits))
	rep.metric("grid_s", m.gridDone.Seconds(), "s", 1, "timed loop start until the worker's last complete")
	rep.metric("jobs_s", m.jobsDone.Seconds(), "s", 1, "timed loop start until the last job's result")
	return finishE2E(rep, m.wall, len(m.rtts), "lease+complete round trips and the job list", &m.rss)
}

// mixed is what the closed loop measured.
type mixed struct {
	wall       time.Duration // until both the grid and the job list are done
	gridDone   time.Duration
	jobsDone   time.Duration
	rtts, jobs []float64 // ms
	rss        rssSamples
	cells      []sweep.CellResult
	result     []byte // GET /grids/{id}/result
	gridID     string
	cacheHits  int
	polls      int
	shed       int64
	worker     *lane
	jobLane    *lane
	rp         *replayer
	tracedNs   int64 // traced and untraced worker rounds, for trace overhead
	plainNs    int64
	tracedN    int
	plainN     int
}

// mixedLoop registers the grid, runs one warm-up lease round, then runs
// the worker and the job client side by side until the grid and the job
// list are both done, and checks the served grid bytes against the cells
// computed here.
func mixedLoop(cfg runConfig, rep *report, x *xqd, g sweep.GridSpec, jobs []listedJob) (*mixed, error) {
	m := &mixed{}
	wc, jc := newClient(x.base), newClient(x.base)
	defer wc.close()
	defer jc.close()
	spec, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	code, body, err := wc.do("POST", "/grids", spec)
	if err := want(code, body, err, http.StatusCreated); err != nil {
		return nil, fmt.Errorf("create grid: %w", err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		return nil, err
	}
	m.gridID = created.ID
	if cfg.trace {
		m.worker, m.jobLane = newLane(1, cfg.epoch), newLane(2, cfg.epoch)
		m.rp = newReplayer(xqdD, xqdP)
	}

	w := &worker{cfg: cfg, rep: rep, c: wc, g: g, m: m}
	if done, err := w.round(0); err != nil || done {
		return nil, fmt.Errorf("warm-up round: done=%v err=%v", done, err)
	}
	var jobErr error
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		jobErr = jobLoop(rep, jc, m, jobs)
		m.jobsDone = time.Since(start)
	}()
	var werr error
	for n := 1; ; n++ {
		done, err := w.round(n)
		if err != nil {
			werr = err
			break
		}
		if done {
			break
		}
	}
	m.gridDone = time.Since(start)
	wg.Wait()
	m.wall = time.Since(start)
	if err := errors.Join(werr, jobErr); err != nil {
		return nil, err
	}

	code, body, err = wc.do("GET", "/grids/"+m.gridID+"/result", nil)
	rep.op(want(code, body, err, http.StatusOK), "grid result")
	m.result = body
	var local bytes.Buffer
	if err := sweep.WriteGridJSONL(&local, g, m.cells); err != nil {
		return nil, err
	}
	rep.check(bytes.Equal(body, local.Bytes()), "served grid bytes differ from WriteGridJSONL over the cells computed here")
	rep.digest("grid-jsonl", body)

	code, body, err = wc.do("GET", "/stats", nil)
	rep.op(want(code, body, err, http.StatusOK), "stats")
	var st server.Stats
	if err == nil {
		rep.op(json.Unmarshal(body, &st), "stats body")
	}
	m.shed = st.Shed
	return m, nil
}

// worker is the `xqsweep -worker` loop: lease one cell, run it, complete.
type worker struct {
	cfg runConfig
	rep *report
	c   *client
	g   sweep.GridSpec
	m   *mixed
}

// round runs one lease/compute/complete round; done reports that the
// grid has no cells left. Traced runs alternate traced and untraced
// rounds, and compute cells by replaying them through the backend.
func (w *worker) round(n int) (done bool, err error) {
	l := w.m.worker
	traced := l != nil && n%2 == 1
	if l != nil {
		l.on, l.unit = traced, n
	}
	root := l.begin("harness.lease_round")
	defer l.end(root)
	t0 := time.Now()
	s := l.begin("server.http.lease")
	code, body, err := w.c.do("POST", "/grids/"+w.m.gridID+"/lease", []byte(`{"worker":"perfbench","max":1}`))
	l.end(s)
	lease := time.Since(t0)
	if err := want(code, body, err, http.StatusOK); err != nil {
		w.rep.op(err, "lease")
		return false, err
	}
	var lr struct {
		Cells  []server.LeasedCell `json:"cells"`
		Status server.GridStatus   `json:"status"`
	}
	if err := json.Unmarshal(body, &lr); err != nil {
		w.rep.op(err, "lease body")
		return false, err
	}
	if len(lr.Cells) == 0 {
		if !lr.Status.Done {
			err = fmt.Errorf("nothing to lease but grid not done: %+v", lr.Status)
		}
		w.rep.op(err, "final lease")
		return true, err
	}
	w.rep.op(nil, "lease")
	cell := lr.Cells[0].Cell

	s = l.begin("sweep.worker_cell")
	var res sweep.CellResult
	if w.m.rp != nil {
		fails := w.m.rp.run(l, cell.P, cell.Rounds, cell.Trials, cell.Seed)
		res = sweep.CellResult{Index: cell.Index, D: cell.D, P: cell.P, Rounds: cell.Rounds, Trials: cell.Trials, Seed: cell.Seed,
			Rate: float64(fails) / float64(cell.Trials)}
	} else {
		res, _, err = sweep.RunGridCell(w.cfg.ctx, w.g, cell, nil)
	}
	l.end(s)
	w.rep.op(err, fmt.Sprintf("cell %d", cell.Index))
	if err != nil {
		return false, err
	}
	w.rep.op(w.g.ValidateCell(res), fmt.Sprintf("cell %d validation", cell.Index))
	payload, err := sweep.MarshalCell(res)
	if err != nil {
		return false, err
	}

	t1 := time.Now()
	s = l.begin("server.http.complete")
	code, body, err = w.c.do("POST", fmt.Sprintf("/grids/%s/cells/%d", w.m.gridID, cell.Index), payload)
	l.end(s)
	complete := time.Since(t1)
	if err := want(code, body, err, http.StatusOK); err != nil {
		w.rep.op(err, fmt.Sprintf("complete cell %d", cell.Index))
		return false, err
	}
	w.rep.op(nil, "complete")
	w.m.cells = append(w.m.cells, res)
	if n == 0 {
		return false, nil // the warm-up round
	}
	w.m.rtts = append(w.m.rtts, ms(lease+complete))
	w.m.rss.sample()
	if l != nil {
		if traced {
			w.m.tracedNs += time.Since(t0).Nanoseconds()
			w.m.tracedN++
		} else {
			w.m.plainNs += time.Since(t0).Nanoseconds()
			w.m.plainN++
		}
	}
	return false, nil
}

// jobLoop is the job client: it submits the listed jobs one at a time
// and polls each to its result.
func jobLoop(rep *report, c *client, m *mixed, jobs []listedJob) error {
	l := m.jobLane
	results := make([][]byte, len(jobs))
	for k, job := range jobs {
		raw, err := json.Marshal(job.spec)
		if err != nil {
			return err
		}
		if l != nil {
			l.unit = k
		}
		root := l.begin("harness.job")
		t0 := time.Now()
		s := l.begin("server.http.submit")
		code, body, err := c.do("POST", "/jobs", raw)
		l.end(s)
		if err := want(code, body, err, http.StatusOK, http.StatusAccepted); err != nil {
			l.end(root)
			rep.op(err, "submit")
			return err
		}
		var sub struct{ ID, Status string }
		if err := json.Unmarshal(body, &sub); err != nil {
			l.end(root)
			rep.op(err, "submit body")
			return err
		}
		rep.op(nil, "submit")
		if sub.Status == "cached" {
			m.cacheHits++
		}
		for {
			s = l.begin("server.http.result")
			code, body, err = c.do("GET", "/jobs/"+sub.ID+"/result", nil)
			l.end(s)
			m.polls++
			if err == nil && code == http.StatusConflict { // not finished yet
				if s >= 0 {
					l.spans[s].name = "server.http.poll"
				}
				s = l.begin("server.sched.wait")
				time.Sleep(pollInterval)
				l.end(s)
				continue
			}
			if err := want(code, body, err, http.StatusOK); err != nil {
				l.end(root)
				rep.op(err, "job result")
				return err
			}
			rep.op(nil, "job result")
			results[k] = body
			break
		}
		m.jobs = append(m.jobs, ms(time.Since(t0)))
		l.end(root)
		if job.dup >= 0 {
			rep.check(bytes.Equal(results[k], results[job.dup]), "duplicate job %s: cached bytes differ from the first result", sub.ID)
		}
	}
	return nil
}

// traceXQD drives a replica grid coordinator over its own store with the
// same lease and complete sequence, and a bare store with the
// coordinator's keys and values, then reports the per-layer breakdown.
func traceXQD(cfg runConfig, rep *report, g sweep.GridSpec, m *mixed) error {
	l := newLane(0, cfg.epoch)
	if err := replicaGrid(cfg, rep, l, g, m); err != nil {
		return err
	}
	logBytes, err := directStore(cfg, rep, l, m)
	if err != nil {
		return err
	}
	a := account(mergeLanes(m.worker, m.jobLane, l), m.worker, m.jobLane, l)
	const toMs = 1e-6
	rep.pct("server.http.lease_p50_ms", a.durs["server.http.lease"], 0.5, toMs, "ms")
	rep.pct("server.http.lease_p99_ms", a.durs["server.http.lease"], 0.99, toMs, "ms")
	rep.pct("server.http.complete_p50_ms", a.durs["server.http.complete"], 0.5, toMs, "ms")
	rep.pct("server.http.complete_p99_ms", a.durs["server.http.complete"], 0.99, toMs, "ms")
	rep.pct("server.grid.lease_p50_ms", a.durs["server.grid.lease"], 0.5, toMs, "ms")
	rep.pct("server.grid.complete_p50_ms", a.durs["server.grid.complete"], 0.5, toMs, "ms")
	rep.pct("store.put_p50_ms", a.durs["store.put"], 0.5, toMs, "ms")
	rep.pct("store.put_p99_ms", a.durs["store.put"], 0.99, toMs, "ms")
	rep.pct("store.get_p50_us", a.durs["store.get"], 0.5, 1e-3, "us")
	rep.metric("store.log_bytes_per_cell", float64(logBytes)/float64(len(m.cells)), "bytes", len(m.cells), "direct store log size over cells")
	rep.pct("server.http.submit_p50_ms", a.durs["server.http.submit"], 0.5, toMs, "ms")
	rep.pct("server.http.result_p50_ms", a.durs["server.http.result"], 0.5, toMs, "ms")
	jobs := len(a.durs["harness.job"])
	rep.metric("server.polls_per_job", float64(m.polls)/float64(max(jobs, 1)), "count", jobs, "result GETs per job")
	rep.metric("server.cache_hits", float64(m.cacheHits), "count", jobs, "submissions answered from cache")
	rep.metric("server.shed", float64(m.shed), "count", 1, "from /stats")
	rep.pct("sweep.worker_cell_p50_ms", a.durs["sweep.worker_cell"], 0.5, toMs, "ms")
	backendMetrics(rep, a, m.tracedN, "traced worker cell")
	decoderCounts(rep, m.rp)
	overheadMetrics(rep, a, float64(m.tracedNs)/float64(max(m.tracedN, 1)), float64(m.plainNs)/float64(max(m.plainN, 1)),
		fmt.Sprintf("mean traced lease round (%d) vs untraced (%d)", m.tracedN, m.plainN))
	return saveTrace(cfg, mergeLanes(m.worker, m.jobLane, l), m.worker, m.jobLane, l)
}

func replicaGrid(cfg runConfig, rep *report, l *lane, g sweep.GridSpec, m *mixed) error {
	dir := filepath.Join(cfg.dir, "replica")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(dir, "results.log"))
	if err != nil {
		return err
	}
	gc := server.NewGridCoordinator(st, 0)
	id, _, err := gc.Create(g)
	if err != nil {
		return errors.Join(err, st.Close())
	}
	for i, res := range m.cells {
		l.unit = i
		root := l.begin("harness.replica_round")
		s := l.begin("server.grid.lease")
		cells, _, err := gc.Lease(id, "replica", 1)
		l.end(s)
		rep.check(err == nil && len(cells) == 1 && cells[0].Cell.Index == res.Index, "replica lease %d: %v", res.Index, err)
		payload, err := sweep.MarshalCell(res)
		if err != nil {
			l.end(root)
			return errors.Join(err, st.Close())
		}
		s = l.begin("server.grid.complete")
		_, err = gc.Complete(id, res.Index, payload)
		l.end(s)
		l.end(root)
		rep.op(err, fmt.Sprintf("replica complete %d", res.Index))
	}
	b, err := gc.Result(id)
	rep.check(err == nil && bytes.Equal(b, m.result), "replica grid bytes differ from the served bytes: %v", err)

	// The same protocol on a grid a tenth the size, untraced: how lease
	// cost scales with grid size.
	small := g
	small.Ps = g.Ps[:max(minUnits, len(g.Ps)/10)]
	id, _, err = gc.Create(small)
	if err != nil {
		return errors.Join(err, st.Close())
	}
	var leases []float64
	for _, res := range m.cells[:len(small.Ps)] {
		t := time.Now()
		_, _, err := gc.Lease(id, "replica", 1)
		leases = append(leases, float64(time.Since(t).Nanoseconds()))
		rep.op(err, fmt.Sprintf("small replica lease %d", res.Index))
		payload, err := sweep.MarshalCell(res)
		if err == nil {
			_, err = gc.Complete(id, res.Index, payload)
		}
		rep.op(err, fmt.Sprintf("small replica complete %d", res.Index))
	}
	rep.pct(fmt.Sprintf("server.grid.lease_p50_ms@%dcells", len(small.Ps)), leases, 0.5, 1e-6, "ms")
	return st.Close()
}

// directStore writes each cell the way the coordinator does (lease
// record, cell record, lease tombstone) and reads the cell back; it
// returns the log's size.
func directStore(cfg runConfig, rep *report, l *lane, m *mixed) (int64, error) {
	dir := filepath.Join(cfg.dir, "direct")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "results.log")
	st, err := store.Open(path)
	if err != nil {
		return 0, err
	}
	type leaseRecord struct {
		Worker     string `json:"worker"`
		DeadlineNs int64  `json:"deadline_ns"`
		Attempt    int    `json:"attempt"`
	}
	for i, res := range m.cells {
		l.unit = i
		leaseKey := fmt.Sprintf("glease/%s/%06d", m.gridID, res.Index)
		cellKey := fmt.Sprintf("gcell/%s/%06d", m.gridID, res.Index)
		lease, err := json.Marshal(leaseRecord{"direct", time.Now().Add(server.DefaultLeaseTTL).UnixNano(), 1})
		if err != nil {
			return 0, errors.Join(err, st.Close())
		}
		payload, err := sweep.MarshalCell(res)
		if err != nil {
			return 0, errors.Join(err, st.Close())
		}
		root := l.begin("harness.store_round")
		s := l.begin("store.put")
		err = st.Put(leaseKey, lease)
		l.end(s)
		rep.op(err, "store put lease")
		s = l.begin("store.put")
		err = st.Put(cellKey, payload)
		l.end(s)
		rep.op(err, "store put cell")
		s = l.begin("store.get")
		got, ok, err := st.Get(cellKey)
		l.end(s)
		rep.check(err == nil && ok && bytes.Equal(got, payload), "store get cell %d", res.Index)
		s = l.begin("store.delete")
		err = st.Delete(leaseKey)
		l.end(s)
		l.end(root)
		rep.op(err, "store delete lease")
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
