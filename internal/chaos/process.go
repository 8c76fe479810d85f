// Package chaos proves recovery by killing real processes. Fleet spawns
// cluster workers, lets them SIGKILL themselves at planted points
// (mid-superstep, mid-checkpoint-write, mid-barrier) and respawns
// replacements on the same checkpoint directory: the harness behind the
// kill-9 tests, whose recovered results must be the fault-free run's. The
// package's other kill-9 tests SIGKILL a process appending to a live graph's
// WAL, and one that also compacts the WAL into snapshots, and require the
// graph that reopens to hold every acknowledged batch. The parent process plays coordinator; children are
// re-executions of the parent binary detected via an environment variable,
// the standard trick for subprocess tests without a second binary. Its
// in-process tests inject a vertex panic or a corrupt batch into shards
// stepped as the coordinator steps them, and recover as the cluster does.
//
// chaos imports cluster; cluster must never import chaos.
package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"

	"graphite/internal/cluster"
	"graphite/internal/obs"
)

// ChildEnv marks a process as a cluster worker child: its value is a JSON
// ChildSpec. Binaries that use Fleet MUST call RunChildWorker first thing
// in main (or TestMain) so re-executions become workers instead of running
// the parent's code path.
const ChildEnv = "GRAPHITE_CLUSTER_CHILD"

// ChildSpec is the worker bootstrap carried in ChildEnv. HTTP makes the
// child serve its metric registry at a loopback /metrics (+ /debug/)
// endpoint, writing the bound address to Dir/WorkerHTTPAddrFile so the
// parent can scrape it. A child whose run completed keeps that endpoint up
// until it has served one /metrics scrape of the finished run (or the fleet
// kills it), so a parent that polls until the fleet has exited cannot lose
// the race with a short run. Trace makes the child append its JSONL run
// trace to Dir/WorkerTraceFile — append, so a respawned incarnation extends
// the same file and the directory accumulates one trace for the whole slot.
type ChildSpec struct {
	Addr  string `json:"addr"`
	Dir   string `json:"dir"`
	HTTP  bool   `json:"http,omitempty"`
	Trace bool   `json:"trace,omitempty"`
}

// Per-slot observability artifacts, relative to the worker directory.
const (
	WorkerHTTPAddrFile = "http.addr"
	WorkerTraceFile    = "trace.jsonl"
)

// RunChildWorker checks ChildEnv and, when set, runs this process as a
// cluster worker until completion, then exits — it never returns in that
// case. A planted crash is read from cluster.CrashEnv. When ChildEnv is
// unset it returns immediately.
func RunChildWorker() {
	raw := os.Getenv(ChildEnv)
	if raw == "" {
		return
	}
	var spec ChildSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "chaos child: bad %s: %v\n", ChildEnv, err)
		os.Exit(2)
	}
	plan, err := cluster.ParseCrashPlan(os.Getenv(cluster.CrashEnv))
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos child: %v\n", err)
		os.Exit(2)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg := cluster.WorkerConfig{
		Addr:   spec.Addr,
		Dir:    spec.Dir,
		Crash:  plan,
		Logger: log,
	}
	if spec.HTTP || spec.Trace {
		if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "chaos child: %v\n", err)
			os.Exit(2)
		}
	}
	var trace *obs.JSONLTracer
	if spec.Trace {
		trace, err = obs.AppendJSONLTrace(filepath.Join(spec.Dir, WorkerTraceFile))
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos child: %v\n", err)
			os.Exit(2)
		}
		cfg.Tracer = trace
	}
	holdForScrape := func() {}
	if spec.HTTP {
		reg := obs.NewRegistry()
		cfg.Registry = reg
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos child: metrics listener: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(filepath.Join(spec.Dir, WorkerHTTPAddrFile),
			[]byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "chaos child: %v\n", err)
			os.Exit(2)
		}
		// The first /metrics scrape to start after runDone is set closes
		// scraped.
		var runDone atomic.Bool
		scraped := make(chan struct{})
		var once sync.Once
		metrics := obs.MetricsHandler(reg)
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			final := runDone.Load()
			metrics.ServeHTTP(w, r)
			if final {
				once.Do(func() { close(scraped) })
			}
		})
		mux.Handle("/debug/", obs.DebugMux(reg))
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		holdForScrape = func() {
			runDone.Store(true)
			<-scraped
			// Shutdown lets that scrape's response finish before the process
			// exits.
			_ = srv.Shutdown(context.Background())
		}
	}
	err = cluster.RunWorker(context.Background(), cfg)
	if trace != nil {
		_ = trace.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos child (%s): %v\n", spec.Dir, err)
		os.Exit(1)
	}
	holdForScrape()
	os.Exit(0)
}

// FleetConfig parameterizes a worker fleet.
type FleetConfig struct {
	// Addr is the coordinator address the workers dial.
	Addr string
	// Dirs are the per-worker checkpoint directories; one worker process is
	// spawned per entry. A respawned worker reuses its slot's directory —
	// that is what makes it a valid replacement for the process it follows.
	Dirs []string
	// Crash plants cluster.CrashEnv in the FIRST incarnation of the given
	// worker slots. Respawns never inherit a crash: a replacement is an
	// honest worker.
	Crash map[int]string
	// MaxRespawns bounds respawns per slot; zero means 2.
	MaxRespawns int
	// Stderr, when true, wires the children's stderr to the parent's.
	Stderr bool
	// HTTP and Trace enable the per-worker observability artifacts for every
	// slot (see ChildSpec).
	HTTP  bool
	Trace bool
}

// Fleet supervises a set of worker child processes: it respawns any worker
// that dies without a clean exit (SIGKILL from a planted crash, primarily)
// and reports how it all ended.
type Fleet struct {
	cfg  FleetConfig
	exe  string
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
	// procs holds the currently-running command per slot for Stop.
	procs    []*exec.Cmd
	respawns int
	stopped  bool
}

// StartFleet spawns one worker process per configured directory.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Addr == "" || len(cfg.Dirs) == 0 {
		return nil, errors.New("chaos: fleet requires Addr and Dirs")
	}
	if cfg.MaxRespawns <= 0 {
		cfg.MaxRespawns = 2
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("chaos: cannot locate own binary for re-exec: %w", err)
	}
	f := &Fleet{cfg: cfg, exe: exe, procs: make([]*exec.Cmd, len(cfg.Dirs))}
	for slot := range cfg.Dirs {
		f.wg.Add(1)
		go f.supervise(slot)
	}
	return f, nil
}

// spawn launches one incarnation of slot's worker. Only the first
// incarnation carries a planted crash.
func (f *Fleet) spawn(slot int, withCrash bool) (*exec.Cmd, error) {
	spec, err := json.Marshal(ChildSpec{
		Addr: f.cfg.Addr, Dir: f.cfg.Dirs[slot],
		HTTP: f.cfg.HTTP, Trace: f.cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.exe)
	cmd.Env = append(os.Environ(), ChildEnv+"="+string(spec))
	if withCrash {
		if plan, ok := f.cfg.Crash[slot]; ok {
			cmd.Env = append(cmd.Env, cluster.CrashEnv+"="+plan)
		}
	}
	if f.cfg.Stderr {
		cmd.Stderr = os.Stderr
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return nil, errors.New("chaos: fleet stopped")
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	f.procs[slot] = cmd
	return cmd, nil
}

// supervise runs one slot: spawn, wait, respawn on unclean death.
func (f *Fleet) supervise(slot int) {
	defer f.wg.Done()
	for attempt := 0; ; attempt++ {
		cmd, err := f.spawn(slot, attempt == 0)
		if err != nil {
			f.record(fmt.Errorf("chaos: slot %d spawn: %w", slot, err))
			return
		}
		err = cmd.Wait()
		if err == nil {
			return // clean exit: the run completed
		}
		f.mu.Lock()
		stopped := f.stopped
		f.respawns++
		over := attempt+1 > f.cfg.MaxRespawns
		f.mu.Unlock()
		if stopped {
			return
		}
		if over {
			f.record(fmt.Errorf("chaos: slot %d kept dying (%d respawns): %w", slot, attempt+1, err))
			return
		}
		// The death is the experiment; the respawn is the recovery.
	}
}

func (f *Fleet) record(err error) {
	f.mu.Lock()
	f.errs = append(f.errs, err)
	f.mu.Unlock()
}

// Respawns reports how many worker deaths the fleet replaced so far.
func (f *Fleet) Respawns() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.respawns
}

// Wait blocks until every slot's supervision ends (clean worker exits, or
// giving up) and returns the collected errors.
func (f *Fleet) Wait() error {
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(f.errs...)
}

// Stop kills all running workers and stops respawning; for teardown after
// a failed run. A fleet whose run completed needs no Stop.
func (f *Fleet) Stop() {
	f.mu.Lock()
	f.stopped = true
	procs := append([]*exec.Cmd(nil), f.procs...)
	f.mu.Unlock()
	for _, cmd := range procs {
		if cmd != nil && cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
	f.wg.Wait()
}
