package cluster_test

// In-process cluster tests: coordinator and workers as goroutines over real
// loopback TCP. The process-kill matrix lives in internal/chaos; here the
// protocol itself is proven — full-run bit-identity against a single-process
// core.Run, and the lease-expiry recovery path driven by a worker
// that goes silent on purpose.

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

const testWorkers = 3

// startCluster launches a coordinator on a loopback listener and returns
// it with its address and a channel carrying Serve's outcome.
func startCluster(t *testing.T, cfg cluster.Config) (*cluster.Coordinator, string, chan serveOutcome) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = testWorkers
	}
	if cfg.Graph == "" {
		cfg.Graph = "transit"
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan serveOutcome, 1)
	go func() {
		res, err := coord.Serve(ln)
		out <- serveOutcome{res: res, err: err}
	}()
	t.Cleanup(coord.Close)
	return coord, ln.Addr().String(), out
}

type serveOutcome struct {
	res *core.Result
	err error
}

func runWorkers(ctx context.Context, t *testing.T, addr string, dirs []string) {
	t.Helper()
	for _, dir := range dirs {
		go func(dir string) {
			if err := cluster.RunWorker(ctx, cluster.WorkerConfig{Addr: addr, Dir: dir}); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", filepath.Base(dir), err)
			}
		}(dir)
	}
}

func workerDirs(t *testing.T, n int) []string {
	t.Helper()
	base := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("w%d", i))
	}
	return dirs
}

func waitResult(t *testing.T, out chan serveOutcome, timeout time.Duration) *core.Result {
	t.Helper()
	select {
	case o := <-out:
		if o.err != nil {
			t.Fatalf("cluster run failed: %v", o.err)
		}
		return o.res
	case <-time.After(timeout):
		t.Fatal("cluster run timed out")
		return nil
	}
}

// directRun executes the same computation in one process with core.Run — the
// path serve and the CLIs take — at the same worker count, which the cluster
// matches bit for bit: both deliver through the engine's one receive routine.
func directRun(t *testing.T, g *tgraph.Graph, algo string, p algorithms.Params, workers int) *core.Result {
	t.Helper()
	prog, opts, err := algorithms.New(g, algo, p)
	if err != nil {
		t.Fatal(err)
	}
	opts.NumWorkers = workers
	res, err := core.Run(g, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func compareResults(t *testing.T, g *tgraph.Graph, got, want *core.Result) {
	t.Helper()
	for i := 0; i < g.NumVertices(); i++ {
		gs, ws := got.State(i), want.State(i)
		if (gs == nil) != (ws == nil) {
			t.Fatalf("vertex %d: state presence mismatch", i)
		}
		if gs == nil {
			continue
		}
		if !reflect.DeepEqual(gs.Parts(), ws.Parts()) {
			t.Errorf("vertex %d (%v):\n  cluster: %v\n  direct:  %v",
				i, g.VertexAt(i).ID, gs.Parts(), ws.Parts())
		}
	}
}

// runCounts are the counts of a run's metrics every driver must agree on.
func runCounts(m *engine.Metrics) [7]int64 {
	return [7]int64{int64(m.Supersteps), m.ComputeCalls, m.ScatterCalls, m.Messages, m.MessageBytes, m.Delivered, m.Spilled}
}

func TestClusterMatchesCoreRun(t *testing.T) {
	g := tgraph.TransitExample()
	for _, tc := range []struct {
		algo string
		p    algorithms.Params
	}{
		{algo: "sssp", p: algorithms.Params{Source: 0}},
		{algo: "eat", p: algorithms.Params{Source: 0}},
		{algo: "pr"},
		{algo: "lcc"}, // its messages spill
	} {
		t.Run(tc.algo, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			coord, addr, out := startCluster(t, cluster.Config{Algo: tc.algo, Params: tc.p})
			runWorkers(ctx, t, addr, workerDirs(t, testWorkers))
			got := waitResult(t, out, 30*time.Second)
			want := directRun(t, g, tc.algo, tc.p, testWorkers)
			compareResults(t, g, got, want)
			// supersteps, compute, scatter, messages, bytes, delivered, spilled
			if g, w := runCounts(got.Metrics), runCounts(want.Metrics); g != w {
				t.Errorf("cluster counted %v, Run %v", g, w)
			}
			rep := coord.Report()
			if rep.Supersteps == 0 || rep.Checkpoints == 0 {
				t.Errorf("report missing progress: %+v", rep)
			}
			if len(rep.Recoveries) != 0 {
				t.Errorf("fault-free run recorded recoveries: %+v", rep.Recoveries)
			}
			if got.Metrics == nil || got.Metrics.Supersteps != rep.Supersteps {
				t.Errorf("result metrics not aggregated: %+v", got.Metrics)
			}
		})
	}
}

// TestClusterLeaseRecovery wedges one worker mid-run (it stops heartbeating
// and processing), which must trip the coordinator's lease, roll survivors
// back to the committed generation, admit a replacement worker on the same
// checkpoint directory, and still produce the fault-free answer.
func TestClusterLeaseRecovery(t *testing.T) {
	g := tgraph.TransitExample()
	p := algorithms.Params{Source: 0}
	rec := &obs.Recorder{}
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord, addr, out := startCluster(t, cluster.Config{
		Algo: "sssp", Params: p,
		Lease:         300 * time.Millisecond,
		RejoinTimeout: 20 * time.Second,
		Tracer:        rec,
		Registry:      reg,
		Span:          "lease-test-span",
	})
	dirs := workerDirs(t, testWorkers)
	runWorkers(ctx, t, addr, dirs[:2])
	// The third worker wedges when told to execute superstep 3.
	go func() {
		err := cluster.RunWorker(ctx, cluster.WorkerConfig{
			Addr: addr, Dir: dirs[2], HangAtSuperstep: 3,
		})
		if err == nil {
			t.Error("hung worker finished cleanly; hang hook did not fire")
		}
	}()
	// Start the replacement on the SAME directory once recovery begins.
	go func() {
		for ctx.Err() == nil {
			if coord.Stats().State == "recovering" {
				if err := cluster.RunWorker(ctx, cluster.WorkerConfig{Addr: addr, Dir: dirs[2]}); err != nil && ctx.Err() == nil {
					t.Errorf("replacement worker: %v", err)
				}
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	got := waitResult(t, out, 60*time.Second)
	want := directRun(t, g, "sssp", p, testWorkers)
	compareResults(t, g, got, want)
	if g, w := runCounts(got.Metrics), runCounts(want.Metrics); g != w || got.Metrics.Recoveries != 1 {
		t.Errorf("recovered cluster counted %v in %d recoveries, Run %v", g, got.Metrics.Recoveries, w)
	}
	rep := coord.Report()
	if len(rep.Recoveries) != 1 {
		t.Fatalf("want exactly one recovery, got %+v", rep.Recoveries)
	}
	r := rep.Recoveries[0]
	if r.Failed != 3 || r.Gen != 1 || r.ResumeAt != 3 {
		t.Errorf("recovery shape: %+v (want failed=3 gen=1 resume_at=3)", r)
	}
	if r.MTTR <= 0 || r.Detect <= 0 || r.RestoredBytes <= 0 {
		t.Errorf("recovery timings not recorded: %+v", r)
	}
	if rec.Count("worker_lost") != 1 || rec.Count("cluster_recovery") != 1 {
		t.Errorf("trace events: lost=%d recovery=%d", rec.Count("worker_lost"), rec.Count("cluster_recovery"))
	}
	// The replacement joined with rejoin=true.
	joins := 0
	for _, e := range rec.Events() {
		if j, ok := e.(obs.WorkerJoin); ok && j.Rejoin {
			joins++
		}
	}
	if joins != 1 {
		t.Errorf("want one rejoin join event, got %d", joins)
	}
	// Span propagation: the configured span survives into the coordinator
	// and onto every span-carrying trace event.
	if coord.Span() != "lease-test-span" {
		t.Errorf("coordinator span = %q, want the configured one", coord.Span())
	}
	for _, e := range rec.Events() {
		switch ev := e.(type) {
		case obs.RunStart:
			if ev.Span != "lease-test-span" {
				t.Errorf("run_start span = %q", ev.Span)
			}
		case obs.ClusterStep:
			if ev.Span != "lease-test-span" {
				t.Errorf("cluster_step %d span = %q", ev.Superstep, ev.Span)
			}
		}
	}
	// Straggler attribution: one row per executed superstep (replays
	// included), each with a timing per shard.
	attr := coord.Attribution()
	if len(attr) != rep.Supersteps {
		t.Errorf("attribution rows = %d, executed supersteps = %d", len(attr), rep.Supersteps)
	}
	for _, a := range attr {
		if len(a.Shards) != testWorkers {
			t.Errorf("superstep %d attribution has %d shard timings, want %d", a.Superstep, len(a.Shards), testWorkers)
		}
		if a.WallNS <= 0 || a.SkewMilli < 1000 {
			t.Errorf("superstep %d attribution not measured: %+v", a.Superstep, a)
		}
	}
	// Fleet health gauges settle healthy after the recovery: every worker
	// reported at the final barrier, so no heartbeats are missed and the
	// quietest lease is strictly positive.
	lease := 300 * time.Millisecond
	remaining := reg.Gauge(obs.GClusterLeaseRemainingMS).Load()
	if remaining <= 0 || remaining > lease.Milliseconds() {
		t.Errorf("lease_remaining_ms = %d, want (0, %d]", remaining, lease.Milliseconds())
	}
	if missed := reg.Gauge(obs.GClusterMissedHeartbeats).Load(); missed != 0 {
		t.Errorf("missed_heartbeats = %d after a healthy finish, want 0", missed)
	}
	if err := coord.Ready(); err != nil {
		t.Errorf("finished cluster not ready: %v", err)
	}
}

// TestClusterConfigGating pins coordinator-side validation.
func TestClusterConfigGating(t *testing.T) {
	if _, err := cluster.New(cluster.Config{Workers: 0, Graph: "transit", Algo: "sssp"}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := cluster.New(cluster.Config{Workers: 2, Graph: "nope", Algo: "sssp"}); err == nil {
		t.Error("unknown graph spec accepted")
	}
	if _, err := cluster.New(cluster.Config{Workers: 2, Graph: "transit", Algo: "scc"}); err != nil {
		t.Errorf("SCC — a master and aggregators — refused for cluster execution: %v", err)
	}
	if _, err := cluster.ParseCrashPlan("explode:1"); err == nil {
		t.Error("bad crash phase accepted")
	}
	if pl, err := cluster.ParseCrashPlan("compute:3"); err != nil || pl.Phase != "compute" || pl.Superstep != 3 {
		t.Errorf("crash plan parse: %+v %v", pl, err)
	}
}

// TestLeaseHealthTransitions pins the fleet-health gauge function across
// the states a fleet moves through: everyone on schedule, one worker a
// heartbeat behind, a worker about to lose its lease, and one past it.
// Heartbeats renew every lease/4, so with a 400ms lease a beat is 100ms.
func TestLeaseHealthTransitions(t *testing.T) {
	lease := 400 * time.Millisecond
	for _, tc := range []struct {
		name     string
		silences []time.Duration
		wantRem  int64 // milliseconds
		wantMiss int64
	}{
		{"empty fleet", nil, 400, 0},
		{"all on schedule", []time.Duration{10 * time.Millisecond, 40 * time.Millisecond}, 360, 0},
		{"one beat behind", []time.Duration{120 * time.Millisecond, 10 * time.Millisecond}, 280, 1},
		{"nearly expired", []time.Duration{390 * time.Millisecond, 5 * time.Millisecond}, 10, 3},
		{"expired", []time.Duration{450 * time.Millisecond}, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rem, miss := cluster.LeaseHealth(tc.silences, lease)
			if rem != tc.wantRem || miss != tc.wantMiss {
				t.Errorf("LeaseHealth(%v) = (%d, %d), want (%d, %d)",
					tc.silences, rem, miss, tc.wantRem, tc.wantMiss)
			}
		})
	}
}

// TestLoadGraphAllFormats pins the graph-spec contract: every on-disk
// format resolves to the identical graph (the partition maps depend on
// it), a snapshot-backed cluster run matches the fixture-backed run, and
// unknown specs fail loudly.
func TestLoadGraphAllFormats(t *testing.T) {
	want := tgraph.TransitExample()
	dir := t.TempDir()
	text := filepath.Join(dir, "g.tg")
	if err := tgraph.WriteFile(text, want); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "g.gsn")
	if err := tgraph.WriteSnapshotFile(snap, want); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"transit", "file:" + text, "file:" + snap} {
		m, err := cluster.LoadGraph(spec)
		if err != nil {
			t.Fatalf("LoadGraph(%q): %v", spec, err)
		}
		if err := tgraph.Equal(m.Graph, want); err != nil {
			t.Fatalf("LoadGraph(%q) diverges: %v", spec, err)
		}
		m.Close()
	}
	if _, err := cluster.LoadGraph("nope"); err == nil {
		t.Fatal("unknown spec accepted")
	}

	// A full cluster run over the mapped snapshot must match the
	// fixture-backed direct run bit for bit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := algorithms.Params{Source: 0}
	_, addr, out := startCluster(t, cluster.Config{Graph: "file:" + snap, Algo: "eat", Params: p})
	runWorkers(ctx, t, addr, workerDirs(t, testWorkers))
	got := waitResult(t, out, 30*time.Second)
	compareResults(t, want, got, directRun(t, want, "eat", p, testWorkers))
}
