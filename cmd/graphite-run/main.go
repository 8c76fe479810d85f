// Command graphite-run executes one of the twelve ICM algorithms over a
// temporal graph file and prints per-vertex results and run metrics.
//
// Usage:
//
//	graphite-run -graph FILE -algo NAME [-source ID] [-target ID]
//	             [-start T] [-deadline T] [-workers N] [-top K]
//	             [-trace out.jsonl] [-pprof addr] [-v]
//
// The special graph name "transit" runs over the paper's built-in transit
// example without needing a file. With -trace, the run's per-superstep event
// stream is written as JSONL; render or validate it with graphite-trace.
// With -pprof, /metrics (the metrics registry) and /debug/pprof are
// served on the given address for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

func main() {
	var (
		graphPath = flag.String("graph", "", `temporal graph file, or "transit" for the built-in example`)
		algo      = flag.String("algo", "", "algorithm: "+strings.Join(algorithms.Names(), " "))
		source    = flag.Int64("source", 0, "source vertex id (path algorithms)")
		target    = flag.Int64("target", -1, "target vertex id (LD; default: source)")
		start     = flag.Int64("start", 0, "journey start time")
		deadline  = flag.Int64("deadline", 0, "LD deadline (0: graph horizon)")
		workers   = flag.Int("workers", 0, "BSP workers (0: GOMAXPROCS)")
		top       = flag.Int("top", 10, "print at most this many vertices")
		tracePath = flag.String("trace", "", "write the per-superstep JSONL trace to this file")
		span      = flag.String("span", "", "run span ID stamped on the trace (empty: minted randomly)")
		pprofAddr = flag.String("pprof", "", "serve /metrics and /debug/pprof on this address")
		verbose   = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-run", *verbose)
	if *graphPath == "" || *algo == "" {
		flag.Usage()
		os.Exit(2)
	}

	var g *tgraph.Graph
	if *graphPath == "transit" {
		g = tgraph.TransitExample()
	} else {
		// OpenAnyFile maps .gsn snapshots instead of parsing them; the
		// mapping lives until process exit.
		m, err := tgraph.OpenAnyFile(*graphPath)
		if err != nil {
			fatal(log, "load graph", err)
		}
		g = m.Graph
	}
	log.Info("graph loaded", "graph", fmt.Sprint(g), "horizon", int64(g.Horizon()))

	src := tgraph.VertexID(*source)
	tgt := tgraph.VertexID(*target)
	if *target < 0 {
		tgt = src
	}

	reg := obs.NewRegistry()
	if *pprofAddr != "" {
		srv, err := obs.ServeDebug(*pprofAddr, reg)
		if err != nil {
			fatal(log, "pprof endpoint", err)
		}
		defer srv.Close()
		log.Info("debug endpoint up", "addr", srv.Addr)
	}

	prog, opts, err := algorithms.New(g, *algo, algorithms.Params{
		Source:    src,
		Target:    tgt,
		StartTime: ival.Time(*start),
		Deadline:  ival.Time(*deadline),
	})
	if err != nil {
		fatal(log, "select algorithm", err)
	}
	opts.NumWorkers = *workers
	opts.Registry = reg
	if *span == "" {
		*span = obs.NewSpanID()
	}
	opts.Span = *span
	log.Debug("run span", "span", *span)
	if *tracePath != "" {
		jt, err := obs.CreateJSONLTrace(*tracePath)
		if err != nil {
			fatal(log, "open trace", err)
		}
		opts.Tracer = jt
		defer func() {
			if err := jt.Close(); err != nil {
				log.Error("close trace", "err", err)
			}
		}()
		log.Debug("tracing", "path", *tracePath)
	}

	r, err := core.Run(g, prog, opts)
	if err != nil {
		fatal(log, "run", err)
	}

	fmt.Printf("metrics: %v\n", r.Metrics)
	fmt.Printf("stats: warp=%d suppressed=%d active-intervals=%d max-partitions=%d\n",
		r.Stats.WarpCalls, r.Stats.WarpSuppressed, r.Stats.ActiveIntervals, r.Stats.MaxPartitions)

	// Print the first vertices by id, through the canonical renderer shared
	// with the serving layer.
	for _, line := range serve.FormatResult(r, *top) {
		fmt.Println(line)
	}
}

func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	os.Exit(1)
}
