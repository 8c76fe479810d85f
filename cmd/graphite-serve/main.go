// Command graphite-serve is the resident temporal graph query service: it
// loads one or more temporal graphs at startup and answers concurrent
// algorithm requests over a JSON HTTP API until shut down.
//
// Usage:
//
//	graphite-serve -graph name=FILE [-graph name=FILE ...]
//	               [-live name=FILE.wal ...] [-addr :8090]
//	               [-workers N] [-max-concurrent N] [-queue N] [-cache N]
//	               [-timeout D] [-drain D] [-v]
//
// The special spec "transit" (or "name=transit") loads the paper's built-in
// transit example. Graph files may be text or binary (see graphite-ingest).
//
// -live opens (creating if absent) a WAL-backed mutable graph: its event log
// is replayed on startup and POST /v1/graphs/{name}/events appends mutation
// batches, each durably logged before the new epoch becomes visible. A
// SIGKILL loses at most the unacknowledged tail batch; restarting on the
// same WAL restores the exact acknowledged graph. cmd/graphite-feed replays
// text event logs against this endpoint. Live epochs are never clipped at a
// horizon: a run wanting one sends the window [0, h).
//
// Endpoints: GET /v1/graphs, POST /v1/run, GET/DELETE /v1/jobs/{id},
// GET /healthz, plus /metrics and /debug/pprof. On SIGINT/SIGTERM the
// server drains gracefully: new runs are rejected with 503 while in-flight
// and queued runs finish, up to -drain; whatever is still running then is
// aborted at its next superstep barrier.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphite/internal/live"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

func main() {
	graphs := map[string]*tgraph.Graph{}
	var graphSpecs, liveSpecs []string
	flag.Func("graph", `graph to load, as name=FILE, name=transit, or just "transit" (repeatable)`, func(spec string) error {
		graphSpecs = append(graphSpecs, spec)
		return nil
	})
	flag.Func("live", "WAL-backed mutable graph, as name=FILE.wal (created if absent; repeatable)", func(spec string) error {
		liveSpecs = append(liveSpecs, spec)
		return nil
	})
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		workers       = flag.Int("workers", 0, "default BSP workers per run (0: GOMAXPROCS)")
		maxConcurrent = flag.Int("max-concurrent", 0, "concurrent runs (0: GOMAXPROCS)")
		queue         = flag.Int("queue", serve.DefaultQueueDepth, "queued runs beyond max-concurrent before 429")
		cacheSize     = flag.Int("cache", serve.DefaultCacheSize, "result cache entries (negative disables)")
		timeout       = flag.Duration("timeout", serve.DefaultTimeout, "default per-request run deadline")
		drain         = flag.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM")
		compactEvery  = flag.Int("live-compact", 0, "auto-compact a live graph's WAL every N ingested events (0: never)")
		verbose       = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-serve", *verbose)
	if len(graphSpecs) == 0 && len(liveSpecs) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, spec := range graphSpecs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			name, path = spec, spec
		}
		var g *tgraph.Graph
		if path == "transit" {
			g = tgraph.TransitExample()
		} else {
			// OpenAnyFile maps .gsn snapshots instead of parsing them; the
			// mapping lives until process exit.
			m, err := tgraph.OpenAnyFile(path)
			if err != nil {
				fatal(log, "load graph", err)
			}
			g = m.Graph
		}
		graphs[name] = g
		log.Info("graph loaded", "name", name, "graph", fmt.Sprint(g), "horizon", int64(g.Horizon()))
	}

	// Live graphs share the server's registry so their ingest counters and
	// epoch gauges show up on /metrics.
	reg := obs.NewRegistry()
	liveGraphs := map[string]*live.Graph{}
	for _, spec := range liveSpecs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(log, "parse -live", fmt.Errorf("spec %q is not name=FILE.wal", spec))
		}
		lg, err := live.Open(path, live.Options{
			Name:         name,
			CompactEvery: *compactEvery,
			Registry:     reg,
		})
		if err != nil {
			fatal(log, "open live graph", err)
		}
		defer lg.Close()
		liveGraphs[name] = lg
		info := lg.Info()
		rec := lg.LastRecovery()
		log.Info("live graph opened", "name", name, "wal", path,
			"epoch", info.Epoch, "events", info.Events, "vertices", info.Vertices, "edges", info.Edges,
			"from_snapshot", rec.FromSnapshot, "tail_events", rec.Events)
	}

	s, err := serve.New(serve.Config{
		Graphs:         graphs,
		Live:           liveGraphs,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		RequestTimeout: *timeout,
		Workers:        *workers,
		Registry:       reg,
	})
	if err != nil {
		fatal(log, "configure server", err)
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "graphs", s.GraphNames())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fatal(log, "listen", err)
	case <-ctx.Done():
	}

	log.Info("draining", "budget", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		log.Warn("drain budget exceeded; aborting in-flight runs", "err", err)
	}
	_ = s.Close()
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = hs.Shutdown(shutCtx)
	log.Info("stopped")
}

func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	os.Exit(1)
}
