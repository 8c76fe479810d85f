// Command graphite-worker runs one cluster worker: it dials the
// coordinator, receives a shard assignment, executes its slice of every
// superstep, and persists durable checkpoints under -dir so that a
// replacement process started on the same directory can take over after a
// crash (kill -9 included).
//
// Usage:
//
//	graphite-worker -coordinator HOST:PORT -dir PATH [-dial-attempts N]
//	                [-dial-backoff D] [-mesh-addr ADDR] [-http ADDR]
//	                [-trace] [-v]
//
// The worker exits 0 when the cluster run completes. If this process
// replaces a dead worker, -dir MUST be the dead worker's checkpoint
// directory (shared storage or the same machine): the directory is bound
// to a shard on first assignment and the worker refuses to restore
// another shard's state.
//
// With -http the worker serves a Prometheus text /metrics endpoint (plus
// /debug/pprof) on ADDR and writes the bound address to
// DIR/http.addr, so a scraper — or the repo's metrics-smoke test — can
// discover it even when ADDR ends in ":0". With -trace the worker appends
// its JSONL run trace to DIR/trace.jsonl; append-mode means a replacement
// process extends the same file, producing one trace per slot that
// graphite-trace -cluster can merge with the coordinator's.
//
// The worker opens a mesh listener on -mesh-addr and ships message batches
// straight to its peers, leaving the coordinator pure control flow; a batch
// for a peer it could not dial, or whose connection broke, goes through the
// coordinator instead.
//
// For fault-injection experiments the environment variable GRAPHITE_CRASH
// may hold a plan "PHASE:SUPERSTEP" (phase: compute, peersend, checkpoint,
// barrier); the worker then SIGKILLs itself at that point, exactly like
// the chaos harness does in the repo's kill-9 recovery tests.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"graphite/internal/cluster"
	"graphite/internal/obs"
)

func main() {
	var (
		coord    = flag.String("coordinator", "", "coordinator address (host:port)")
		dir      = flag.String("dir", "", "durable checkpoint directory (reuse a dead worker's to replace it)")
		attempts = flag.Int("dial-attempts", cluster.DefaultDialAttempts, "coordinator dial attempts before giving up")
		backoff  = flag.Duration("dial-backoff", cluster.DefaultDialBackoff, "base dial retry backoff (jittered, capped exponential)")
		meshAddr = flag.String("mesh-addr", "", "mesh listen address (default: an ephemeral loopback port)")
		httpAddr = flag.String("http", "", "serve /metrics and /debug on this address; bound address is written to DIR/http.addr")
		doTrace  = flag.Bool("trace", false, "append the JSONL run trace to DIR/trace.jsonl")
		verbose  = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-worker", *verbose)
	if *coord == "" || *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	plan, err := cluster.ParseCrashPlan(os.Getenv(cluster.CrashEnv))
	if err != nil {
		fatal(log, "crash plan", err)
	}
	cfg := cluster.WorkerConfig{
		Addr:           *coord,
		Dir:            *dir,
		DialAttempts:   *attempts,
		DialBackoff:    *backoff,
		MeshListenAddr: *meshAddr,
		Crash:          plan,
		Logger:         log,
	}
	if *httpAddr != "" || *doTrace {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal(log, "worker dir", err)
		}
	}
	if *doTrace {
		trace, err := obs.AppendJSONLTrace(filepath.Join(*dir, "trace.jsonl"))
		if err != nil {
			fatal(log, "open trace", err)
		}
		defer trace.Close()
		cfg.Tracer = trace
	}
	if *httpAddr != "" {
		reg := obs.NewRegistry()
		cfg.Registry = reg
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(log, "metrics listener", err)
		}
		if err := os.WriteFile(filepath.Join(*dir, "http.addr"),
			[]byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(log, "write http.addr", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.MetricsHandler(reg))
		mux.Handle("/debug/", obs.DebugMux(reg))
		go func() { _ = http.Serve(ln, mux) }()
		log.Info("http endpoint up", "addr", ln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = cluster.RunWorker(ctx, cfg)
	if err != nil {
		fatal(log, "worker run", err)
	}
	log.Info("worker done")
}

func fatal(log *slog.Logger, msg string, err error) {
	log.Error(msg, "err", err)
	os.Exit(1)
}
