// Command graphite-ingest builds a temporal graph file from an event log
// (the streaming-ingestion path): one timestamped mutation per line, closed
// at an optional horizon, written as text or an mmap-able snapshot.
//
// Usage:
//
//	graphite-ingest -log events.txt -out graph.tg [-horizon T] [-format text|snapshot] [-v]
//
// Log records: av/rv (vertex), ae/re (edge), vp/ep (property); see
// internal/stream.ReadLog for the exact grammar.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graphite/internal/obs"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

func main() {
	var (
		logPath = flag.String("log", "", "event log file (default: stdin)")
		out     = flag.String("out", "", "output graph file")
		horizon = flag.Int64("horizon", 0, "close still-open entities at this time (0: leave unbounded)")
		format  = flag.String("format", "text", "output format: text or snapshot (mmap-able)")
		verbose = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-ingest", *verbose)
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Validate the format before consuming the log: a typo here must not
	// cost a full read of a multi-gigabyte event stream.
	write := tgraph.WriteFile
	switch *format {
	case "text":
	case "snapshot":
		write = tgraph.WriteSnapshotFile
	default:
		log.Error("unknown -format (want text or snapshot)", "format", *format)
		os.Exit(2)
	}

	in := os.Stdin
	if *logPath != "" {
		f, err := os.Open(*logPath)
		if err != nil {
			log.Error("open log", "err", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	acc := stream.NewAccumulator()
	start := time.Now()
	if err := stream.ReadLog(in, acc); err != nil {
		log.Error("read log", "err", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	rate := float64(acc.Events()) / max(elapsed.Seconds(), 1e-9)
	log.Info("log consumed", "events", acc.Events(),
		"elapsed", elapsed.Round(time.Millisecond), "events_per_sec", fmt.Sprintf("%.0f", rate))
	g, err := acc.Graph(*horizon)
	if err != nil {
		log.Error("materialize graph", "err", err)
		os.Exit(1)
	}
	if err := write(*out, g); err != nil {
		log.Error("write graph", "path", *out, "err", err)
		os.Exit(1)
	}
	log.Info("ingested", "events", acc.Events(), "graph", fmt.Sprint(g), "out", *out)
}
