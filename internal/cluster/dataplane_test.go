package cluster_test

// Mesh and partition tests: a run over the worker mesh must produce the same
// bits as the single-process core.Run, on a healthy mesh and on one
// with a dead link (whose batches take the coordinator hop, one at a time),
// and the "shard:<dir>" spec must resolve per-shard induced subgraphs that
// leave results untouched while shrinking each worker's resident graph.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// writeTransitPartitions cuts the transit fixture for testWorkers shards
// and returns the partition directory plus the written file infos.
func writeTransitPartitions(t *testing.T) (string, []cluster.PartitionInfo) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "parts")
	infos, err := cluster.WritePartitions(tgraph.TransitExample(), dir, testWorkers)
	if err != nil {
		t.Fatal(err)
	}
	return dir, infos
}

// TestClusterMeshMatchesSingleProcess proves the mesh invariant: for every
// algorithm, a run over the whole graph and one over per-shard partition
// files both produce results bit-identical to the single-process core.Run —
// and the byte counters prove every batch went peer to peer. LCC, TC
// and SCC read adjacency through VertexCtx.Graph rather than the scatter
// plan, but only the computing vertex's own in- and out-edges, which a
// shard's induced partition keeps whole: over partition files they match
// too. SCC's phases and halt come from the coordinator's barrier, which
// merges the shards' aggregates as Run merges its workers'.
func TestClusterMeshMatchesSingleProcess(t *testing.T) {
	g := tgraph.TransitExample()
	partDir, _ := writeTransitPartitions(t)
	for _, algo := range []struct {
		name string
		p    algorithms.Params
	}{
		{name: "sssp", p: algorithms.Params{Source: 0}},
		{name: "eat", p: algorithms.Params{Source: 0}},
		{name: "pr"},
		{name: "lcc"},
		{name: "tc"},
		{name: "scc"},
	} {
		want := directRun(t, g, algo.name, algo.p, testWorkers)
		for _, tc := range []struct {
			name  string
			graph string
		}{
			{name: "direct", graph: "transit"},
			{name: "direct-partitioned", graph: "shard:" + partDir},
		} {
			t.Run(algo.name+"/"+tc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				reg := obs.NewRegistry()
				coord, addr, out := startCluster(t, cluster.Config{
					Algo: algo.name, Params: algo.p, Graph: tc.graph, Registry: reg,
				})
				runWorkers(ctx, t, addr, workerDirs(t, testWorkers))
				got := waitResult(t, out, 30*time.Second)
				compareResults(t, g, got, want)
				rep := coord.Report()
				if b := reg.Counter(obs.CClusterRelayBytes).Load(); b != 0 {
					t.Errorf("healthy mesh sent %d bytes through the coordinator", b)
				}
				if reg.Counter(obs.CClusterDirectBytes).Load() == 0 {
					t.Error("run shipped no peer-to-peer bytes")
				}
				if tc.graph != "transit" {
					// Partitioned workers report their mapped partition size;
					// every shard must be resident-smaller than the full copy.
					full, err := os.Stat(filepath.Join(partDir, tgraph.PartitionFullName))
					if err != nil {
						t.Fatal(err)
					}
					if len(rep.WorkerGraphBytes) != testWorkers {
						t.Fatalf("worker graph bytes: %v", rep.WorkerGraphBytes)
					}
					for s, b := range rep.WorkerGraphBytes {
						if b <= 0 || b >= full.Size() {
							t.Errorf("shard %d resident graph = %d bytes, want (0, %d)", s, b, full.Size())
						}
					}
				}
			})
		}
	}
}

// TestClusterJobsReleaseTheirGraph runs jobs one after another over one
// partition directory in one process, as the benchmark and any embedding
// do. Once a job's workers have returned, no file of the directory may be
// mapped: each worker unmaps its shard when it exits, and the coordinator
// reads its view into the heap. The job's Result must outlive the
// coordinator's Close and a collection: StateByID walks the graph's id
// index, which a coordinator unmapping at Close would have taken away.
func TestClusterJobsReleaseTheirGraph(t *testing.T) {
	g := tgraph.TransitExample()
	partDir, _ := writeTransitPartitions(t)
	want := directRun(t, g, "pr", algorithms.Params{}, testWorkers)
	for job := range 3 {
		got := runJobToExit(t, cluster.Config{Algo: "pr", Graph: "shard:" + partDir})
		runtime.GC()
		for i := range g.NumVertices() {
			id := g.VertexAt(i).ID
			gs, ws := got.StateByID(id), want.StateByID(id)
			if gs == nil || ws == nil || !reflect.DeepEqual(gs.Parts(), ws.Parts()) {
				t.Errorf("job %d: vertex %v after Close: cluster %v, core.Run %v", job, id, gs, ws)
			}
		}
		maps, ok := mappingsUnder(t, partDir)
		if !ok {
			t.Log("no /proc/self/maps: the mapping check is skipped")
		}
		if len(maps) > 0 {
			t.Errorf("job %d: %d mappings of partition files left after its workers returned:\n%s",
				job, len(maps), strings.Join(maps, "\n"))
		}
	}
}

// runJobToExit runs one job and returns its result once the coordinator is
// closed and every worker has returned.
func runJobToExit(t *testing.T, cfg cluster.Config) *core.Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	coord, addr, out := startCluster(t, cfg)
	for _, dir := range workerDirs(t, testWorkers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cluster.RunWorker(ctx, cluster.WorkerConfig{Addr: addr, Dir: dir}); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", filepath.Base(dir), err)
			}
		}()
	}
	got := waitResult(t, out, 30*time.Second)
	wg.Wait()
	coord.Close()
	return got
}

// mappingsUnder returns the lines of /proc/self/maps that name a file under
// dir; ok is false where the process has no such file.
func mappingsUnder(t *testing.T, dir string) (lines []string, ok bool) {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	if dir, err = filepath.EvalSymlinks(dir); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, dir+string(filepath.Separator)) {
			lines = append(lines, line)
		}
	}
	return lines, true
}

// TestClusterSCCOnTwoWorkers runs SCC — the catalog's one program with a
// master and aggregators — on a 2-worker cluster, over the whole graph and
// over 2-shard partition files: the coordinator's barrier merges the two
// shards' aggregates and runs the master as Run does over two workers.
func TestClusterSCCOnTwoWorkers(t *testing.T) {
	g := tgraph.TransitExample()
	partDir := filepath.Join(t.TempDir(), "parts")
	if _, err := cluster.WritePartitions(g, partDir, 2); err != nil {
		t.Fatal(err)
	}
	want := directRun(t, g, "scc", algorithms.Params{}, 2)
	for _, graph := range []string{"transit", "shard:" + partDir} {
		ctx, cancel := context.WithCancel(context.Background())
		_, addr, out := startCluster(t, cluster.Config{Workers: 2, Algo: "scc", Graph: graph})
		runWorkers(ctx, t, addr, workerDirs(t, 2))
		got := waitResult(t, out, 30*time.Second)
		cancel()
		compareResults(t, g, got, want)
		if got.Metrics.Supersteps != want.Metrics.Supersteps || got.Metrics.Messages != want.Metrics.Messages {
			t.Errorf("%s: %d supersteps, %d messages; Run: %d, %d", graph,
				got.Metrics.Supersteps, got.Metrics.Messages, want.Metrics.Supersteps, want.Metrics.Messages)
		}
	}
}

// deadMeshAddr refuses every connection: port 1 is outside the ephemeral
// range, so no listener of this or a neighbouring test can come to own it.
const deadMeshAddr = "127.0.0.1:1"

// advertiseDeadMesh stands between one worker and the coordinator and
// rewrites the mesh address in the worker's hello — always the first frame —
// to deadMeshAddr; every later frame passes through untouched, both ways.
// It returns the address the worker should dial instead of the coordinator's.
func advertiseDeadMesh(t *testing.T, coordAddr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		wc, err := ln.Accept()
		if err != nil {
			return
		}
		defer wc.Close()
		cc, err := net.Dial("tcp", coordAddr)
		if err != nil {
			t.Errorf("proxy: dial coordinator: %v", err)
			return
		}
		defer cc.Close()
		ftype, payload, err := codec.ReadFrame(wc)
		if err != nil {
			t.Errorf("proxy: read hello: %v", err)
			return
		}
		var hello map[string]any
		if err := json.Unmarshal(payload, &hello); err != nil || hello["mesh_addr"] == nil {
			t.Errorf("proxy: first frame is not a hello with a mesh address: %q (%v)", payload, err)
			return
		}
		hello["mesh_addr"] = deadMeshAddr
		payload, _ = json.Marshal(hello)
		if err := codec.WriteFrame(cc, ftype, payload); err != nil {
			t.Errorf("proxy: forward hello: %v", err)
			return
		}
		go io.Copy(wc, cc)
		io.Copy(cc, wc)
	}()
	return ln.Addr().String()
}

// TestClusterSurvivesDeadMeshLink runs a fleet in which nobody can reach one
// worker's mesh listener: the batches bound for that shard — and only those
// — must take the coordinator hop, every other batch still goes peer to
// peer, nothing is recovered from, and the answer is the single-process one.
func TestClusterSurvivesDeadMeshLink(t *testing.T) {
	g := tgraph.TransitExample()
	for _, algo := range []struct {
		name string
		p    algorithms.Params
	}{
		{name: "sssp", p: algorithms.Params{Source: 0}},
		{name: "pr"},
	} {
		t.Run(algo.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reg := obs.NewRegistry()
			coord, addr, out := startCluster(t, cluster.Config{Algo: algo.name, Params: algo.p, Registry: reg})
			dirs := workerDirs(t, testWorkers)
			// The unreachable worker registers first, so it is shard 0.
			runWorkers(ctx, t, advertiseDeadMesh(t, addr), dirs[:1])
			for joinBy := time.Now().Add(10 * time.Second); coord.Stats().Live < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(joinBy) {
					t.Fatal("the first worker never registered")
				}
			}
			runWorkers(ctx, t, addr, dirs[1:])
			got := waitResult(t, out, 30*time.Second)
			compareResults(t, g, got, directRun(t, g, algo.name, algo.p, testWorkers))
			if rep := coord.Report(); len(rep.Recoveries) != 0 {
				t.Errorf("a dead mesh link was treated as a dead worker: %+v", rep.Recoveries)
			}
			if reg.Counter(obs.CClusterRelayBytes).Load() == 0 {
				t.Error("no bytes took the coordinator hop")
			}
			if reg.Counter(obs.CClusterDirectBytes).Load() == 0 {
				t.Error("one dead link stopped every peer-to-peer batch")
			}
			for _, a := range coord.Attribution() {
				for _, st := range a.Shards {
					if (st.RelayBytes > 0) != (st.Shard == 0) {
						t.Errorf("superstep %d: shard %d was forwarded %d bytes; only shard 0 is unreachable",
							a.Superstep, st.Shard, st.RelayBytes)
					}
					if st.DirectBytes == 0 {
						t.Errorf("superstep %d: shard %d shipped nothing peer to peer", a.Superstep, st.Shard)
					}
				}
			}
		})
	}
}

// TestClusterConfigPartitionWidth pins the partition validation in
// cluster.New.
func TestClusterConfigPartitionWidth(t *testing.T) {
	dir, _ := writeTransitPartitions(t)
	// Partition cut for testWorkers shards; any other width must be refused.
	if _, err := cluster.New(cluster.Config{Workers: testWorkers + 1, Graph: "shard:" + dir, Algo: "sssp"}); err == nil {
		t.Error("worker count differing from the partition cut accepted")
	}
	if _, err := cluster.New(cluster.Config{Workers: testWorkers, Graph: "shard:" + dir, Algo: "sssp"}); err != nil {
		t.Errorf("matching partitioned config rejected: %v", err)
	}
}

// TestLoadGraphShard pins the "shard:<dir>" spec contract: the full copy
// and every per-shard file resolve with their metadata, a missing file and
// a file claiming the wrong shard fail loudly, and the embedded assignment
// is one total map over the full vertex set.
func TestLoadGraphShard(t *testing.T) {
	want := tgraph.TransitExample()
	dir, infos := writeTransitPartitions(t)
	if len(infos) != testWorkers+1 {
		t.Fatalf("wrote %d files, want %d", len(infos), testWorkers+1)
	}

	m, meta, err := cluster.LoadGraphShard("shard:"+dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgraph.Equal(m.Graph, want); err != nil {
		t.Errorf("full copy diverges: %v", err)
	}
	if meta == nil || meta.Shard != -1 || meta.Shards != testWorkers {
		t.Errorf("full meta: %+v", meta)
	}
	part := meta.Partitioner()
	m.Close()

	for s := 0; s < testWorkers; s++ {
		m, meta, err := cluster.LoadGraphShard("shard:"+dir, s)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if meta.Shard != s || meta.Owned(s) == 0 {
			t.Errorf("shard %d meta: %+v", s, meta)
		}
		// Full vertex set retained; edges trimmed to the incident set.
		if m.Graph.NumVertices() != want.NumVertices() {
			t.Errorf("shard %d dropped vertices: %d != %d", s, m.Graph.NumVertices(), want.NumVertices())
		}
		if m.Graph.NumEdges() >= want.NumEdges() {
			t.Errorf("shard %d kept all %d edges", s, m.Graph.NumEdges())
		}
		// The embedded assignment agrees with the full copy's partitioner.
		pp := meta.Partitioner()
		for v := 0; v < want.NumVertices(); v++ {
			if pp(v, testWorkers) != part(v, testWorkers) {
				t.Fatalf("shard %d assignment diverges at vertex %d", s, v)
			}
		}
		m.Close()
	}

	if _, _, err := cluster.LoadGraphShard("shard:"+dir, testWorkers+7); err == nil {
		t.Error("missing partition file accepted")
	}
	// A file claiming another shard: copy part-000 over part-001.
	b, err := os.ReadFile(filepath.Join(dir, tgraph.PartitionFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tgraph.PartitionFileName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cluster.LoadGraphShard("shard:"+dir, 1); err == nil {
		t.Error("partition file claiming the wrong shard accepted")
	}
}

// TestWritePartitionsInfos pins the WritePartitions summary: one full row
// plus one per shard, owned counts partitioning the vertex set, and every
// per-shard file smaller than the full copy.
func TestWritePartitionsInfos(t *testing.T) {
	g := tgraph.TransitExample()
	dir := filepath.Join(t.TempDir(), "parts")
	infos, err := cluster.WritePartitions(g, dir, testWorkers)
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].Shard != -1 || infos[0].Name != tgraph.PartitionFullName || infos[0].Edges != g.NumEdges() {
		t.Errorf("full row: %+v", infos[0])
	}
	owned := 0
	for _, pi := range infos[1:] {
		owned += pi.Owned
		if pi.Vertices != g.NumVertices() {
			t.Errorf("shard %d vertex set trimmed: %+v", pi.Shard, pi)
		}
		if pi.Bytes <= 0 || pi.Bytes >= infos[0].Bytes {
			t.Errorf("shard %d file not smaller than full copy: %+v vs %d", pi.Shard, pi, infos[0].Bytes)
		}
		if pi.Name != tgraph.PartitionFileName(pi.Shard) {
			t.Errorf("shard %d name: %+v", pi.Shard, pi)
		}
	}
	if owned != g.NumVertices() {
		t.Errorf("owned counts sum to %d, want %d", owned, g.NumVertices())
	}
	if _, err := cluster.WritePartitions(g, dir, 0); err == nil {
		t.Error("zero shards accepted")
	}
	for _, pi := range infos[1:] {
		m, meta, err := cluster.LoadGraphShard("shard:"+dir, pi.Shard)
		if err != nil {
			t.Fatalf("reopen shard %d: %v", pi.Shard, err)
		}
		if meta.Owned(pi.Shard) != pi.Owned {
			t.Errorf("shard %d owned: file %d, info %d", pi.Shard, meta.Owned(pi.Shard), pi.Owned)
		}
		m.Close()
	}
}
