package chaos

// The kill-9 recovery proof: real worker processes are SIGKILLed at planted
// points — mid-superstep, mid-checkpoint-write (between temp file and
// rename), and mid-barrier (after the report is sent) — and the respawned
// replacement must restore from disk such that the final result is
// bit-identical to a fault-free cluster run of the same computation.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/core"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// TestMain routes re-executions of this binary into worker or WAL-writer
// mode before any test runs; parent runs proceed normally.
func TestMain(m *testing.M) {
	RunChildWorker()
	runWALChild()
	runCompactChild()
	os.Exit(m.Run())
}

const procWorkers = 3

// clusterProcessRun executes one full cluster run with real worker
// processes over the given graph spec, optionally planting a crash in one
// of them. Workers run with the default (direct) data plane, so every kill
// in the matrix also exercises mesh teardown and re-dial.
func clusterProcessRun(t *testing.T, graph, algo string, p algorithms.Params, crash map[int]string) (*core.Result, cluster.Report, int) {
	t.Helper()
	coord, err := cluster.New(cluster.Config{
		Workers:       procWorkers,
		Graph:         graph,
		Algo:          algo,
		Params:        p,
		Lease:         500 * time.Millisecond,
		RejoinTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *core.Result
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		res, err := coord.Serve(ln)
		out <- outcome{res, err}
	}()
	base := t.TempDir()
	dirs := make([]string, procWorkers)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("w%d", i))
	}
	fleet, err := StartFleet(FleetConfig{
		Addr:   ln.Addr().String(),
		Dirs:   dirs,
		Crash:  crash,
		Stderr: testing.Verbose(),
	})
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	var o outcome
	select {
	case o = <-out:
	case <-time.After(90 * time.Second):
		coord.Close()
		fleet.Stop()
		t.Fatal("cluster run timed out")
	}
	if o.err != nil {
		fleet.Stop()
		t.Fatalf("cluster run failed: %v", o.err)
	}
	if err := fleet.Wait(); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	return o.res, coord.Report(), fleet.Respawns()
}

// counts are the metrics a run's result must repeat, whatever it recovered
// from.
func counts(m *obs.RunEnd) [7]int64 {
	return [7]int64{int64(m.Supersteps), m.ComputeCalls, m.ScatterCalls, m.Messages, m.MessageBytes, m.Delivered, m.Spilled}
}

func assertIdentical(t *testing.T, g *tgraph.Graph, got, want *core.Result) {
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
			t.Errorf("vertex %d (%v):\n  recovered:  %v\n  fault-free: %v",
				i, g.VertexAt(i).ID, gs.Parts(), ws.Parts())
		}
	}
}

// TestProcessKillRecovery is the smoke test that the shell is wired: every
// kill phase on SSSP, with real processes, a real SIGKILL and a respawn. The
// protocol's failures are enumerated in internal/cluster's simulator, which
// also runs the PageRank, EAT and SCC rows this matrix once held
// (TestSimKillMatrixRows).
func TestProcessKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes; skipped in -short")
	}
	g := tgraph.TransitExample()
	src := algorithms.Params{Source: 0}
	for _, tc := range []struct {
		name  string
		algo  string
		p     algorithms.Params
		crash string
	}{
		// compute:3 — killed after shipping superstep-3 batches, before
		// delivering; peers hold a half-finished superstep.
		{name: "sssp-kill-compute", algo: "sssp", p: src, crash: "compute:3"},
		// checkpoint:2 — killed between the generation-1 temp-file write
		// and its atomic rename; the torn write must never be loaded and
		// the cluster must fall back to generation 0 and replay.
		{name: "sssp-kill-checkpoint", algo: "sssp", p: src, crash: "checkpoint:2"},
		// barrier:3 — killed after the superstep-3 barrier report; the
		// coordinator may have closed the superstep already.
		{name: "sssp-kill-barrier", algo: "sssp", p: src, crash: "barrier:3"},
		// peersend:3 — killed mid-ship on the direct data plane: the first
		// peer batch has left over the mesh, the rest never will. Peers hold
		// a torn exchange and half-open mesh connections; the replacement
		// must re-dial and the replay must erase the partial delivery.
		{name: "sssp-kill-peersend", algo: "sssp", p: src, crash: "peersend:3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, cleanRep, cleanRespawns := clusterProcessRun(t, "transit", tc.algo, tc.p, nil)
			if cleanRespawns != 0 || len(cleanRep.Recoveries) != 0 {
				t.Fatalf("fault-free run was not fault-free: respawns=%d recoveries=%+v",
					cleanRespawns, cleanRep.Recoveries)
			}
			got, rep, respawns := clusterProcessRun(t, "transit", tc.algo, tc.p, map[int]string{1: tc.crash})
			if respawns < 1 {
				t.Fatalf("planted crash did not kill the worker (respawns=%d)", respawns)
			}
			if len(rep.Recoveries) < 1 {
				t.Fatalf("no recovery recorded: %+v", rep)
			}
			r := rep.Recoveries[0]
			if r.MTTR <= 0 || r.RestoredBytes <= 0 {
				t.Errorf("recovery accounting incomplete: %+v", r)
			}
			t.Logf("recovery: failed=%d resume=%d gen=%d replayed=%d mttr=%v restored=%dB",
				r.Failed, r.ResumeAt, r.Gen, r.Replayed, r.MTTR.Round(time.Millisecond), r.RestoredBytes)
			assertIdentical(t, g, got, want)
			// The replayed supersteps replace the lost ones: the run's counts
			// are the fault-free run's, however late a master's decisions came.
			if g, w := counts(got.Metrics), counts(want.Metrics); g != w {
				t.Errorf("recovered run counted %+v, fault-free %+v", g, w)
			}
		})
	}
}

// TestProcessKillRecoveryPartitioned repeats the worst kill (mid-peer-send
// on the direct plane) with every process on per-shard partition files:
// the replacement worker must map its own induced subgraph, adopt the
// embedded assignment, rebuild the mesh, and still converge bit-identically
// to the fault-free whole-graph run.
func TestProcessKillRecoveryPartitioned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes; skipped in -short")
	}
	g := tgraph.TransitExample()
	dir := filepath.Join(t.TempDir(), "parts")
	if _, err := cluster.WritePartitions(g, dir, procWorkers); err != nil {
		t.Fatal(err)
	}
	p := algorithms.Params{Source: 0}
	want, cleanRep, cleanRespawns := clusterProcessRun(t, "transit", "sssp", p, nil)
	if cleanRespawns != 0 || len(cleanRep.Recoveries) != 0 {
		t.Fatalf("fault-free run was not fault-free: respawns=%d recoveries=%+v",
			cleanRespawns, cleanRep.Recoveries)
	}
	got, rep, respawns := clusterProcessRun(t, "shard:"+dir, "sssp", p, map[int]string{1: "peersend:3"})
	if respawns < 1 {
		t.Fatalf("planted crash did not kill the worker (respawns=%d)", respawns)
	}
	if len(rep.Recoveries) < 1 {
		t.Fatalf("no recovery recorded: %+v", rep)
	}
	if len(rep.WorkerGraphBytes) != procWorkers {
		t.Fatalf("worker graph bytes: %v", rep.WorkerGraphBytes)
	}
	full, err := os.Stat(filepath.Join(dir, tgraph.PartitionFullName))
	if err != nil {
		t.Fatal(err)
	}
	for s, b := range rep.WorkerGraphBytes {
		if b <= 0 || b >= full.Size() {
			t.Errorf("shard %d resident graph = %dB, want (0, %d)", s, b, full.Size())
		}
	}
	assertIdentical(t, g, got, want)
}
