// Command graphite-coordinator drives one crash-tolerant cluster run: it
// listens for graphite-worker processes, assigns each a shard, runs the
// requested algorithm superstep-by-superstep across them, and survives
// worker deaths by rolling back to the last globally-committed checkpoint
// generation and replaying once a replacement rejoins.
//
// Usage:
//
//	graphite-coordinator -workers N -algo NAME [-graph SPEC] [-addr :8100]
//	                     [-source V] [-target V] [-iterations N]
//	                     [-checkpoint-every K] [-lease D] [-rejoin-timeout D]
//	                     [-max-recoveries N] [-http ADDR] [-trace PATH]
//	                     [-span ID] [-top N] [-v]
//
// The graph SPEC is "transit" (the paper's built-in example), "file:PATH",
// or "shard:DIR" (a partition directory produced by graphite-partition —
// each worker then maps only its own induced subgraph); every worker must
// be able to resolve the same spec. Workers ship message batches to each
// other over a full TCP mesh; a batch whose mesh link is down goes through
// the coordinator instead. With -http, a liveness (/healthz), readiness
// (/readyz — 503 below worker quorum or mid-recovery), Prometheus text
// /metrics, per-superstep straggler attribution with direct-vs-relayed
// volume per shard (/debug/cluster), and /debug/pprof surface is served
// while the run progresses. The process exits 0 with the rendered result
// once the computation completes.
//
// -trace writes the coordinator's JSONL cluster trace (one cluster_step per
// closed superstep, holding every shard's record; recoveries) to PATH; merge
// it with per-worker traces via "graphite-trace -cluster PATH
// worker0/trace.jsonl ...".
// -span pins the run's span ID (minted randomly when empty); every worker
// stamps the same ID on its trace so the merge can prove all files
// describe one run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/engine"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

func main() {
	var (
		addr       = flag.String("addr", ":8100", "worker listen address")
		workers    = flag.Int("workers", 0, "cluster size: shards assigned, quorum required")
		graph      = flag.String("graph", "transit", `graph spec: "transit", "file:PATH", or "shard:DIR" (resolvable by every worker)`)
		algo       = flag.String("algo", "", "algorithm to run (e.g. sssp, eat, pr)")
		source     = flag.Int64("source", 0, "source vertex id (traversal algorithms)")
		target     = flag.Int64("target", 0, "target vertex id (where the algorithm uses one)")
		iterations = flag.Int("iterations", 0, "iteration budget (PageRank; 0: algorithm default)")
		ckptEvery  = flag.Int("checkpoint-every", cluster.DefaultCheckpointEvery, "durable checkpoint cadence in supersteps")
		lease      = flag.Duration("lease", cluster.DefaultLease, "worker silence tolerated before declaring it dead")
		rejoin     = flag.Duration("rejoin-timeout", cluster.DefaultRejoinTimeout, "how long a recovery waits for a replacement worker")
		maxRec     = flag.Int("max-recoveries", engine.DefaultMaxRecoveries, "rollback-and-replay cycles over the run, one per worker lost, before giving up (negative: unlimited)")
		httpAddr   = flag.String("http", "", "serve /healthz, /readyz, /metrics and /debug on this address")
		tracePath  = flag.String("trace", "", "write the JSONL cluster trace to this file")
		span       = flag.String("span", "", "run span ID stamped on every trace (empty: minted randomly)")
		top        = flag.Int("top", 10, "result lines to print")
		verbose    = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-coordinator", *verbose)
	if *workers <= 0 || *algo == "" {
		flag.Usage()
		os.Exit(2)
	}

	var tracer obs.Tracer
	if *tracePath != "" {
		jt, err := obs.CreateJSONLTrace(*tracePath)
		if err != nil {
			fatal(log, "open trace", err)
		}
		defer jt.Close()
		tracer = jt
	}
	reg := obs.NewRegistry()
	coord, err := cluster.New(cluster.Config{
		Workers: *workers,
		Graph:   *graph,
		Algo:    *algo,
		Params: algorithms.Params{
			Source:     tgraph.VertexID(*source),
			Target:     tgraph.VertexID(*target),
			Iterations: *iterations,
		},
		CheckpointEvery: *ckptEvery,
		Lease:           *lease,
		RejoinTimeout:   *rejoin,
		MaxRecoveries:   *maxRec,
		Registry:        reg,
		Tracer:          tracer,
		Span:            *span,
		Logger:          log,
	})
	if err != nil {
		fatal(log, "configure coordinator", err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(log, "listen", err)
	}
	log.Info("coordinator up", "addr", ln.Addr().String(), "workers", *workers,
		"graph", *graph, "algo", *algo, "span", coord.Span())

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
		})
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			body := map[string]any{"status": "ready", "stats": coord.Stats()}
			code := http.StatusOK
			if err := coord.Ready(); err != nil {
				body["status"], body["reason"], code = "not_ready", err.Error(), http.StatusServiceUnavailable
			}
			writeJSON(w, code, body)
		})
		mux.Handle("/metrics", obs.MetricsHandler(reg))
		mux.Handle("/debug/cluster", coord.DebugHandler())
		mux.Handle("/debug/", obs.DebugMux(reg))
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				log.Error("http endpoint", "err", err)
			}
		}()
		log.Info("http endpoint up", "addr", *httpAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		coord.Close()
	}()

	res, err := coord.Serve(ln)
	if err != nil {
		fatal(log, "cluster run", err)
	}
	rep := coord.Report()
	log.Info("cluster run complete", "supersteps", rep.Supersteps,
		"checkpoints", res.Metrics.Checkpoints, "recoveries", len(rep.Recoveries),
		"makespan", rep.Makespan.Round(time.Millisecond))
	for _, r := range rep.Recoveries {
		log.Info("recovery", "epoch", r.Epoch, "failed_superstep", r.Failed,
			"resumed_at", r.ResumeAt, "gen", r.Gen, "replayed", r.Replayed,
			"mttr", r.MTTR.Round(time.Millisecond), "restored_bytes", r.RestoredBytes)
	}
	for _, line := range serve.FormatResult(res, *top) {
		fmt.Println(line)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	os.Exit(1)
}
