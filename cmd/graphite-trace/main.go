// Command graphite-trace renders a JSONL trace written by graphite-run or
// graphite-bench (-trace flag) as the paper-style per-superstep breakdown
// table: compute+/messaging/barrier splits, primitive counts, warp behaviour
// and fault events per superstep, plus the run totals.
//
// Usage:
//
//	graphite-trace [-check] [-v] trace.jsonl
//	graphite-trace -cluster [-check] [-v] coordinator.jsonl worker0.jsonl ...
//
// A trace file may hold several runs back to back (graphite-bench appends
// every ICM run of an experiment to one file); each run is rendered — or
// validated — separately.
//
// With -check the trace is validated instead of rendered: schema shape,
// superstep contiguity (rollback-and-replay aware), and exact reconciliation
// of per-superstep sums against the run_end totals. A failed check exits
// non-zero, which is what the Makefile trace-smoke target keys off.
//
// With -cluster the first file is a coordinator trace (graphite-coordinator
// -trace) and the rest are per-worker traces (graphite-worker -trace, one
// trace.jsonl per worker directory). The files are merged into one cluster
// timeline: every shard record the coordinator kept in a cluster_step must,
// its relay fields aside, equal a shard_step a worker wrote, and the result
// is rendered as the per-superstep straggler attribution table (compute vs
// barrier-wait vs relay, slowest shard, skew).
// -cluster -check merges and reconciles without rendering.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"graphite/internal/obs"
)

func main() {
	var (
		check   = flag.Bool("check", false, "validate the trace instead of rendering it")
		cluster = flag.Bool("cluster", false, "merge a coordinator trace with per-worker traces into one cluster timeline")
		verbose = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-trace", *verbose)
	if *cluster {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "usage: graphite-trace -cluster [-check] coordinator.jsonl worker0.jsonl ...")
			os.Exit(2)
		}
		clusterMain(log, *check)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: graphite-trace [-check] trace.jsonl")
		os.Exit(2)
	}
	path := flag.Arg(0)
	events := parseFile(log, path)
	// graphite-bench appends every ICM run to one file; treat a trace as a
	// sequence of runs throughout.
	runs := obs.SplitRuns(events)
	log.Debug("trace parsed", "path", path, "events", len(events), "runs", len(runs))
	if len(runs) == 0 {
		log.Error("trace invalid", "err", "no run_start event found")
		os.Exit(1)
	}

	if *check {
		for i, run := range runs {
			if err := obs.ValidateTrace(run); err != nil {
				log.Error("trace invalid", "run", i+1, "err", err)
				os.Exit(1)
			}
		}
		fmt.Printf("trace OK: %d events, %d run(s)\n", len(events), len(runs))
		return
	}

	for i, run := range runs {
		if len(runs) > 1 {
			fmt.Printf("--- run %d/%d ---\n", i+1, len(runs))
		}
		s, err := obs.Summarize(run)
		if err != nil {
			log.Error("summarize trace", "run", i+1, "err", err)
			os.Exit(1)
		}
		s.Render(os.Stdout)
		if i < len(runs)-1 {
			fmt.Println()
		}
	}
}

// clusterMain merges coordinator + worker traces and renders (or, with
// -check, just reconciles) the cluster timeline.
func clusterMain(log *slog.Logger, check bool) {
	coord := parseFile(log, flag.Arg(0))
	var workers [][]obs.Event
	for _, path := range flag.Args()[1:] {
		workers = append(workers, parseFile(log, path))
	}
	ct, err := obs.MergeClusterTrace(coord, workers)
	if err != nil {
		log.Error("cluster trace reconciliation failed", "err", err)
		os.Exit(1)
	}
	log.Debug("cluster trace merged", "span", ct.Span, "workers", ct.Workers,
		"steps", len(ct.Steps), "recoveries", ct.Recoveries)
	if check {
		fmt.Printf("cluster trace OK: span=%s %d worker trace(s), %d superstep(s), %d recovery(ies)\n",
			ct.Span, len(workers), len(ct.Steps), ct.Recoveries)
		return
	}
	ct.Render(os.Stdout)
}

func parseFile(log *slog.Logger, path string) []obs.Event {
	f, err := os.Open(path)
	if err != nil {
		log.Error("open trace", "err", err)
		os.Exit(1)
	}
	defer f.Close()
	events, err := obs.ParseTrace(f)
	if err != nil {
		log.Error("parse trace", "path", path, "err", err)
		os.Exit(1)
	}
	return events
}
