// Command graphite-bench regenerates the tables and figures of the ICM
// paper's evaluation over the synthetic dataset profiles.
//
// Usage:
//
//	graphite-bench [flags] <experiment>...
//
// Experiments: table1, table2, fig4, fig5, fig6a, fig6b, fig6c, fig7,
// msgsize, loc, all; and verify, which "all" leaves out: it runs every
// algorithm on every platform that can run it — over the Table 1 datasets,
// or over the graph file -graph names — and checks each answer against the
// reference oracles (Sec. VII-B1: all platforms give identical results); it
// prints the grid and exits non-zero on a mismatch.
//
// With -trace, every ICM run in the selected experiments appends its
// per-superstep event stream to one JSONL file (render with graphite-trace);
// with -pprof, the metrics registry and the Go profiler are served over HTTP
// while the experiments run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphite/internal/bench"
	"graphite/internal/gen"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "dataset scale factor (1.0 ~ quick laptop runs)")
		workers   = flag.Int("workers", 8, "BSP workers (the paper's cluster uses 8 nodes)")
		batch     = flag.Int("batch", 6, "Chlonos snapshots per batch")
		prIters   = flag.Int("pr-iters", 10, "PageRank iterations")
		seed      = flag.Int64("seed", 42, "dataset generator seed")
		algos     = flag.String("algos", "", "comma-separated algorithm subset for table2/fig4/fig5/verify (default: all 12)")
		graphPath = flag.String("graph", "", "verify this temporal graph file instead of the Table 1 datasets")
		tracePath = flag.String("trace", "", "append every ICM run's JSONL trace to this file")
		pprofAddr = flag.String("pprof", "", "serve /metrics and /debug/pprof on this address")
		verbose   = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphite-bench [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %s verify\n\n", experiments)
		flag.PrintDefaults()
	}
	flag.Parse()
	log := obs.CLILogger("graphite-bench", *verbose)
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := bench.Config{
		Scale:        gen.Scale(*scale),
		Workers:      *workers,
		BatchSize:    *batch,
		PRIterations: *prIters,
		Seed:         *seed,
		Registry:     obs.NewRegistry(),
	}
	if *pprofAddr != "" {
		srv, err := obs.ServeDebug(*pprofAddr, cfg.Registry)
		if err != nil {
			log.Error("pprof endpoint", "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		log.Info("debug endpoint up", "addr", srv.Addr)
	}
	if *tracePath != "" {
		jt, err := obs.CreateJSONLTrace(*tracePath)
		if err != nil {
			log.Error("open trace", "err", err)
			os.Exit(1)
		}
		cfg.Tracer = jt
		defer func() {
			if err := jt.Close(); err != nil {
				log.Error("close trace", "err", err)
			}
		}()
		log.Debug("tracing ICM runs", "path", *tracePath)
	}
	selected := parseAlgos(*algos)

	for _, exp := range flag.Args() {
		log.Debug("experiment start", "exp", exp)
		if err := run(cfg, exp, selected, *graphPath); err != nil {
			log.Error("experiment failed", "exp", exp, "err", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

func parseAlgos(s string) []bench.Algo {
	if s == "" {
		return append(append([]bench.Algo{}, bench.TIAlgos...), bench.TDAlgos...)
	}
	var out []bench.Algo
	for _, part := range strings.Split(s, ",") {
		out = append(out, bench.Algo(strings.ToUpper(strings.TrimSpace(part))))
	}
	return out
}

// experiments lists what run accepts; "all" runs every one before it.
const experiments = "table1 table2 fig4 fig5 fig6a fig6b fig6c fig7 msgsize loc all"

// matrix caches the expensive full measurement across experiments that
// share it.
var matrix []bench.Cell

func getMatrix(cfg bench.Config, algos []bench.Algo) ([]bench.Cell, error) {
	if matrix != nil {
		return matrix, nil
	}
	var err error
	matrix, err = bench.RunMatrix(cfg, algos)
	return matrix, err
}

func run(cfg bench.Config, exp string, algos []bench.Algo, graphPath string) error {
	w := os.Stdout
	switch exp {
	case "all":
		names := strings.Fields(experiments)
		for _, e := range names[:len(names)-1] {
			if err := run(cfg, e, algos, graphPath); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case "table1":
		rows, err := bench.Table1(cfg)
		if err != nil {
			return err
		}
		bench.RenderTable1(w, rows)
	case "table2":
		cells, err := getMatrix(cfg, algos)
		if err != nil {
			return err
		}
		bench.RenderTable2(w, bench.Table2(cells))
	case "fig4":
		cells, err := getMatrix(cfg, algos)
		if err != nil {
			return err
		}
		bench.RenderFig4(w, bench.Fig4(cells))
	case "fig5":
		cells, err := getMatrix(cfg, algos)
		if err != nil {
			return err
		}
		bench.RenderFig5(w, cells)
	case "fig6a":
		rows, err := bench.Fig6a(cfg)
		if err != nil {
			return err
		}
		bench.RenderFig6a(w, rows)
	case "fig6b":
		rows, err := bench.Fig6b(cfg)
		if err != nil {
			return err
		}
		bench.RenderFig6b(w, rows)
	case "fig6c":
		rows, err := bench.Fig6c(cfg)
		if err != nil {
			return err
		}
		bench.RenderFig6c(w, rows)
	case "fig7":
		rows, err := bench.Fig7(cfg, nil, nil)
		if err != nil {
			return err
		}
		bench.RenderFig7(w, rows)
	case "msgsize":
		rows, err := bench.MsgSize(cfg)
		if err != nil {
			return err
		}
		bench.RenderMsgSize(w, rows)
	case "loc":
		rows, err := bench.LoCTable()
		if err != nil {
			return err
		}
		bench.RenderLoC(w, rows)
	case "verify":
		return verify(w, cfg, algos, graphPath)
	default:
		return fmt.Errorf("unknown experiment (try: %s verify)", experiments)
	}
	return nil
}

// verify checks the platform table on the graph file, or on every Table 1
// dataset, and fails when a cell disagrees with its oracle.
func verify(w io.Writer, cfg bench.Config, algos []bench.Algo, graphPath string) error {
	var ds []bench.Dataset
	if graphPath != "" {
		// OpenAnyFile maps .gsn snapshots instead of parsing them; the
		// mapping lives until process exit.
		m, err := tgraph.OpenAnyFile(graphPath)
		if err != nil {
			return err
		}
		ds = []bench.Dataset{{Profile: gen.Profile{Name: graphPath}, Graph: m.Graph}}
	} else {
		var err error
		if ds, err = bench.Datasets(cfg); err != nil {
			return err
		}
	}
	failed := 0
	for _, d := range ds {
		checks, err := bench.Verify(d.Graph, cfg, algos...)
		if err != nil {
			return err
		}
		bench.RenderVerify(w, d.Profile.Name, checks)
		for _, c := range checks {
			if !c.Passed() {
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d cells disagree with the oracles", failed)
	}
	fmt.Fprintln(w, "all platforms agree with the oracles")
	return nil
}
