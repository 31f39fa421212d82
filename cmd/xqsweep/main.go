// Command xqsweep regenerates the paper's evaluation tables and figures,
// printing measured-vs-paper anchors and optionally dumping the sweep
// series as CSV or JSONL.
//
// Usage:
//
//	xqsweep -all
//	xqsweep -all -checkpoint sweep.json          # snapshot after each cell
//	xqsweep -all -checkpoint sweep.json -resume  # continue a killed run
//	xqsweep -fig 14
//	xqsweep -table 3 -shots 2048
//	xqsweep -degradation
//	xqsweep -fig 19 -csv fig19.csv
//	xqsweep -all -jsonl results.jsonl            # one pinned-schema JSON value per line
//	xqsweep -fig 5 -cpuprofile cpu.prof -memprofile mem.prof
//
// -cpuprofile and -memprofile work in every mode below as well, and the
// profiles are flushed on error exits too.
//
// Sharded grids (distributed sweeps — see README "Distributed sweeps"):
//
//	xqsweep -grid circuit -d 3,5,7 -p 1e-3,3e-3 -jsonl grid.jsonl    # whole grid, one process
//	xqsweep -grid circuit -d 3,5,7 -p 1e-3,3e-3 -shard 0/3 -jsonl s0.jsonl
//	xqsweep -merge -jsonl grid.jsonl s0.jsonl s1.jsonl s2.jsonl      # == single-process bytes
//	xqsweep -grid circuit -d 3,5,7 -p 1e-3,3e-3 -submit http://localhost:8080
//	xqsweep -worker http://localhost:8080 -grid-id <id>              # work-stealing worker
//	xqsweep -fetch http://localhost:8080 -grid-id <id> -jsonl grid.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xqsim"
	"xqsim/internal/cli"
	"xqsim/internal/prof"
)

func main() { os.Exit(run()) }

// run is main's body. It returns the exit status instead of calling
// os.Exit, so the deferred profile flush runs on every path, in every
// mode.
func run() int {
	var (
		fig         = flag.String("fig", "", "figure to regenerate: 5, 10, 12, 14, 16, 17, 18, 19")
		sensitivity = flag.Bool("sensitivity", false, "run the Section-6.2 parameter sensitivity study")
		threshold   = flag.Bool("threshold", false, "run the surface-code memory threshold study")
		circuitThr  = flag.Bool("circuit-threshold", false, "run the circuit-level threshold study (batch frame sampler)")
		degradation = flag.Bool("degradation", false, "run the fault-injection degradation study (logical error rate vs decoder-stall rate)")
		tournament  = flag.Bool("tournament", false, "race the decode backends on accuracy, ns/round, max sustainable distance and backlog degradation")
		decoderName = flag.String("decoder", "", "with -tournament: restrict the race to one backend ("+strings.Join(xqsim.DecoderBackendNames(), ", ")+")")
		table       = flag.String("table", "", "table to regenerate: 3, 4")
		all         = flag.Bool("all", false, "regenerate everything")
		shots       = flag.Int("shots", 512, "shots for the Table-3 functional validation")
		seed        = flag.Int64("seed", 1, "random seed")
		csv         = flag.String("csv", "", "write the sweep series to this CSV file")
		jsonl       = flag.String("jsonl", "", "write one pinned-schema JSON result per line to this file")
		md          = flag.String("md", "", "write a Markdown reproduction report to this file")
		checkpoint  = flag.String("checkpoint", "", "snapshot completed experiments to this JSON file after each cell")
		resume      = flag.Bool("resume", false, "with -checkpoint: skip experiments the snapshot already holds")

		// Sharded grid modes.
		grid       = flag.String("grid", "", "run a parameter grid of this kind ("+strings.Join(xqsim.GridKinds(), ", ")+"); cells enumerate row-major over -d × -p with per-cell seeds")
		gridDs     = flag.String("d", "", "with -grid: comma-separated code distances (odd, >= 3)")
		gridPs     = flag.String("p", "", "with -grid: comma-separated physical error rates")
		gridRounds = flag.Int("rounds", 0, "with -grid: syndrome rounds per trial (0 = kind default)")
		gridTrials = flag.Int("trials", 0, "with -grid: trials per cell (0 = default 256)")
		shard      = flag.String("shard", "", "with -grid: run only shard i/N of the cells (round-robin)")
		merge      = flag.Bool("merge", false, "merge shard JSONL files (arguments) into the single-process-identical grid JSONL")
		submit     = flag.String("submit", "", "with -grid: register the grid with the xqd daemon at this URL and print its id")
		worker     = flag.String("worker", "", "work-stealing worker: lease cells from the xqd daemon at this URL (needs -grid-id)")
		fetch      = flag.String("fetch", "", "fetch the merged grid JSONL from the xqd daemon at this URL (needs -grid-id)")
		gridID     = flag.String("grid-id", "", "grid id for -worker / -fetch")
		workerName = flag.String("worker-name", "", "worker identity for leases (default host-pid)")
		leaseBatch = flag.Int("lease-batch", 1, "cells to lease per request in -worker mode")
	)
	flag.Parse()
	defer prof.Start()()

	if *grid != "" || *merge || *worker != "" || *fetch != "" {
		gf := gridFlags{
			kind: *grid, ds: *gridDs, ps: *gridPs, rounds: *gridRounds, trials: *gridTrials,
			seed: *seed, shard: *shard, jsonl: *jsonl, csv: *csv,
			checkpoint: *checkpoint, resume: *resume,
			submit: *submit, fetch: *fetch, gridID: *gridID,
		}
		ctx, stop := cli.SignalContext()
		defer stop()
		var err error
		switch {
		case *merge:
			err = runGridMerge(gf, flag.Args())
		case *worker != "":
			err = runGridWorker(ctx, workerFlags{
				url: *worker, gridID: *gridID, name: *workerName,
				leaseBatch: *leaseBatch, checkpoint: *checkpoint, csv: *csv,
			})
		case *fetch != "":
			err = runGridFetch(ctx, gf)
		case *submit != "":
			err = runGridSubmit(ctx, gf)
		default:
			err = runGridLocal(ctx, gf)
		}
		if err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
			return 1
		}
		return 0
	}
	opts := xqsim.ExperimentOptions{Shots: *shots, Seed: *seed, TournamentDecoder: *decoderName}

	// SIGINT/SIGTERM cancel the sweep between grid cells; the checkpoint
	// keeps every completed cell, so -resume continues where it stopped.
	ctx, stop := cli.SignalContext()
	defer stop()

	var ck *xqsim.SweepCheckpoint
	if *checkpoint != "" {
		if *resume {
			loaded, err := xqsim.LoadSweepCheckpoint(*checkpoint)
			if err != nil {
				_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
				return 1
			}
			if loaded.Compatible(*seed, *shots) {
				ck = loaded
				_, _ = fmt.Fprintf(os.Stderr, "resuming from %s (%d experiments done)\n", *checkpoint, len(loaded.Results))
			} else if loaded != nil {
				_, _ = fmt.Fprintf(os.Stderr, "checkpoint %s was taken with different -seed/-shots; starting over\n", *checkpoint)
			}
		}
		if ck == nil {
			ck = xqsim.NewSweepCheckpoint(*seed, *shots)
		}
	}

	var results []xqsim.ExperimentResult
	// runOne runs (or restores) one experiment; false means the sweep
	// failed and the error is already reported.
	runOne := func(id string) bool {
		if cid := xqsim.CanonicalExperimentID(id); ck.Has(cid) {
			results = append(results, ck.Results[cid])
			_, _ = fmt.Fprintf(os.Stderr, "skipping %s (checkpointed)\n", cid)
			return true
		}
		r, err := xqsim.RunExperiment(ctx, id, opts)
		if err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
			flushPartial(results, *md, *csv, *jsonl)
			return false
		}
		results = append(results, r)
		if ck != nil {
			ck.Put(r)
			if err := ck.Save(*checkpoint); err != nil {
				_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
				return false
			}
		}
		return true
	}

	var ids []string
	switch {
	case *all:
		ids = []string{"t4", "10", "12", "t3", "5", "14", "16", "17", "18", "19", "sensitivity"}
	case *sensitivity:
		ids = []string{"sensitivity"}
	case *threshold:
		ids = []string{"threshold"}
	case *circuitThr:
		ids = []string{"circuit-threshold"}
	case *degradation:
		ids = []string{"degradation"}
	case *tournament:
		ids = []string{"tournament"}
	case *fig != "":
		ids = []string{*fig}
	case *table != "":
		ids = []string{"t" + *table}
	default:
		flag.Usage()
		return 2
	}
	for _, id := range ids {
		if !runOne(id) {
			return 1
		}
	}

	for _, r := range results {
		fmt.Println(r)
	}

	if *md != "" && len(results) > 0 {
		if err := os.WriteFile(*md, []byte(xqsim.MarkdownReport(results)), 0o644); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
			return 1
		}
		worst, where := xqsim.WorstDeviationPct(results)
		_, _ = fmt.Fprintf(os.Stderr, "wrote report to %s (worst deviation %.1f%% at %s)\n", *md, worst, where)
	}

	if *csv != "" && len(results) > 0 {
		if err := writeCSV(*csv, results); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
			return 1
		}
		_, _ = fmt.Fprintf(os.Stderr, "wrote series to %s\n", *csv)
	}

	if *jsonl != "" && len(results) > 0 {
		if err := writeJSONL(*jsonl, results); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
			return 1
		}
		_, _ = fmt.Fprintf(os.Stderr, "wrote %d JSONL results to %s\n", len(results), *jsonl)
	}
	return 0
}

// flushPartial writes whatever completed before a failure or interrupt,
// so a canceled sweep still leaves its partial report behind.
func flushPartial(results []xqsim.ExperimentResult, md, csv, jsonl string) {
	if len(results) == 0 {
		return
	}
	for _, r := range results {
		fmt.Println(r)
	}
	if md != "" {
		if err := os.WriteFile(md, []byte(xqsim.MarkdownReport(results)), 0o644); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
		}
	}
	if csv != "" {
		if err := writeCSV(csv, results); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
		}
	}
	if jsonl != "" {
		if err := writeJSONL(jsonl, results); err != nil {
			_, _ = fmt.Fprintln(os.Stderr, "xqsweep:", err)
		}
	}
}

func writeJSONL(path string, results []xqsim.ExperimentResult) error {
	var sb strings.Builder
	if err := xqsim.WriteExperimentsJSONL(&sb, results); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func writeCSV(path string, results []xqsim.ExperimentResult) error {
	var sb strings.Builder
	sb.WriteString("experiment,series,x,y\n")
	for _, r := range results {
		for _, s := range r.Series {
			for i := range s.X {
				fmt.Fprintf(&sb, "%s,%s,%g,%g\n", r.ID, s.Name, s.X[i], s.Y[i])
			}
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
