package cluster_test

// In-process cluster tests: coordinator and workers as goroutines over real
// loopback TCP. The process-kill matrix lives in internal/chaos and the
// enumerated failures in the simulator (sim_test.go); here the shell is
// proven over sockets — full-run bit-identity against a single-process
// core.Run, and the lease ticker against connections that go silent.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/codec"
	"graphite/internal/core"
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

// runWorkers starts a worker on each directory, each publishing into a
// registry of its own, which it returns in the directories' order.
func runWorkers(ctx context.Context, t *testing.T, addr string, dirs []string) []*obs.Registry {
	t.Helper()
	regs := make([]*obs.Registry, len(dirs))
	for i, dir := range dirs {
		regs[i] = obs.NewRegistry()
		go func(dir string, reg *obs.Registry) {
			if err := cluster.RunWorker(ctx, cluster.WorkerConfig{Addr: addr, Dir: dir, Registry: reg}); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", filepath.Base(dir), err)
			}
		}(dir, regs[i])
	}
	return regs
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

// intervalBytes sums a trace's superstep_end interval bytes.
func intervalBytes(events []obs.Event) obs.IntervalBytes {
	var sum obs.IntervalBytes
	for _, e := range events {
		if end, ok := e.(obs.SuperstepEnd); ok {
			sum.Add(end.Intervals)
		}
	}
	return sum
}

// runCounts are the counts of a run's metrics every driver must agree on.
func runCounts(m *obs.RunEnd) [7]int64 {
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
			coordTrace := &obs.Recorder{}
			coord, addr, out := startCluster(t, cluster.Config{Algo: tc.algo, Params: tc.p, Tracer: coordTrace})
			regs := runWorkers(ctx, t, addr, workerDirs(t, testWorkers))
			got := waitResult(t, out, 30*time.Second)
			prog, opts, err := algorithms.New(g, tc.algo, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			runTrace := &obs.Recorder{}
			opts.NumWorkers, opts.Tracer = testWorkers, runTrace
			want, err := core.Run(g, prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, g, got, want)
			// The coordinator's superstep records carry the interval bytes its
			// shards reported, as Run's carry its workers'.
			if g, w := intervalBytes(coordTrace.Events()), intervalBytes(runTrace.Events()); g != w || w == (obs.IntervalBytes{}) {
				t.Errorf("coordinator traced interval bytes %+v, Run %+v (want equal, non-zero)", g, w)
			}
			// Each worker publishes its own share of every superstep: the
			// fleet's counts are the run's, and its clocks and pool gauges its
			// own.
			var fleet [4]int64
			for i, reg := range regs {
				for j, name := range []string{obs.CComputeCalls, obs.CMessages, obs.CMessageBytes, obs.CDelivered} {
					fleet[j] += reg.Counter(name).Load()
				}
				if ns, n := reg.Counter(obs.CComputePlusNS).Load(), reg.Histogram(obs.HSuperstepComputeNS).Count(); ns <= 0 || n <= 0 {
					t.Errorf("worker %d published %s = %d over %d observed supersteps, want both > 0", i, obs.CComputePlusNS, ns, n)
				}
				if draws := reg.Gauge(obs.GPoolHits).Load() + reg.Gauge(obs.GPoolMisses).Load(); draws <= 0 {
					t.Errorf("worker %d published %d pool draws, want > 0", i, draws)
				}
			}
			if m := want.Metrics; fleet != [4]int64{m.ComputeCalls, m.Messages, m.MessageBytes, m.Delivered} {
				t.Errorf("workers published compute calls, messages, bytes, delivered %v; Run counted %d %d %d %d",
					fleet, m.ComputeCalls, m.Messages, m.MessageBytes, m.Delivered)
			}
			// supersteps, compute, scatter, messages, bytes, delivered, spilled
			if g, w := runCounts(got.Metrics), runCounts(want.Metrics); g != w {
				t.Errorf("cluster counted %v, Run %v", g, w)
			}
			rep := coord.Report()
			if rep.Supersteps == 0 || got.Metrics.Checkpoints == 0 {
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

// TestClusterLeaseOverSockets drives Serve's lease ticker over real sockets,
// with no hook in any worker. A connection that never says hello is closed
// after a lease of silence; one that takes its assignment and goes silent is
// declared lost for it, and the cluster falls back below quorum. Then three
// workers join and the run is core.Run's.
func TestClusterLeaseOverSockets(t *testing.T) {
	g := tgraph.TransitExample()
	p := algorithms.Params{Source: 0}
	lease := 300 * time.Millisecond
	rec := &obs.Recorder{}
	coord, addr, out := startCluster(t, cluster.Config{Algo: "sssp", Params: p, Lease: lease, Tracer: rec})
	mute, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := codec.WriteFrame(silent, cluster.FHello, []byte(`{"prev_shard":-1,"mesh_addr":"127.0.0.1:1"}`)); err != nil {
		t.Fatal(err)
	}
	if ftype, _, err := codec.ReadFrame(silent); err != nil || ftype != cluster.FAssign {
		t.Fatalf("hello answered with frame %d, error %v", ftype, err)
	}

	_ = mute.SetReadDeadline(time.Now().Add(10 * lease))
	if _, err := mute.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("a connection silent since it opened was not closed: %v", err)
	}
	for deadline := time.Now().Add(10 * lease); ; time.Sleep(10 * time.Millisecond) {
		lost := 0
		for _, e := range rec.Events() {
			if l, ok := e.(obs.WorkerLost); ok && strings.HasPrefix(l.Reason, "lease expired") {
				lost++
			}
		}
		if lost == 1 && coord.Stats().Live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("silent worker not lost on its lease: %d lease losses, %+v", lost, coord.Stats())
		}
	}
	if err := coord.Ready(); err == nil {
		t.Error("a cluster below quorum reports ready")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runWorkers(ctx, t, addr, workerDirs(t, testWorkers))
	compareResults(t, g, waitResult(t, out, 30*time.Second), directRun(t, g, "sssp", p, testWorkers))
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
// it), the coordinator's view of it is heap-backed (its Close is a no-op
// and the graph stays readable after it: an unmapped snapshot would fault),
// a snapshot-backed cluster run matches the fixture-backed run, and
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
		m, meta, err := cluster.LoadGraphShard(spec, -1)
		if err != nil || meta != nil {
			t.Fatalf("LoadGraphShard(%q, -1): meta %v, %v", spec, meta, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("LoadGraphShard(%q, -1): Close: %v", spec, err)
		}
		if err := tgraph.Equal(m.Graph, want); err != nil {
			t.Fatalf("LoadGraphShard(%q, -1) diverges after Close: %v", spec, err)
		}
	}
	if _, _, err := cluster.LoadGraphShard("nope", -1); err == nil {
		t.Fatal("unknown spec accepted")
	}

	// A full cluster run over the snapshot, which the workers map, must
	// match the fixture-backed direct run bit for bit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := algorithms.Params{Source: 0}
	_, addr, out := startCluster(t, cluster.Config{Graph: "file:" + snap, Algo: "eat", Params: p})
	runWorkers(ctx, t, addr, workerDirs(t, testWorkers))
	got := waitResult(t, out, 30*time.Second)
	compareResults(t, want, got, directRun(t, want, "eat", p, testWorkers))
}
