package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/core"
	"graphite/internal/gen"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

// The clustered job: PageRank, whose float folds are arrival-order
// sensitive, so a plane that reordered delivery would fail the identity
// check instead of hiding inside a timing.
const (
	clusterAlgo      = "pr"
	clusterCkptEvery = 2
)

var clusterParams = algorithms.Params{Iterations: 10}

// quiet drops the coordinator's and workers' progress logging.
var quiet = slog.New(slog.DiscardHandler)

// clusterWorkload is cluster_pr: one client running full coordinator jobs —
// cluster.New, two in-process RunWorkers each mapping its shard:DIR
// partition of a SkewedLike graph, the direct mesh over loopback TCP,
// durable checkpoints every second superstep — through to the rendered
// result lines.
type clusterWorkload struct {
	p params

	g       *tgraph.Graph
	dir     string
	partDir string
	parts   []cluster.PartitionInfo
	writeMS float64

	// The partition directory's full-graph copy and the vertex placement
	// embedded in it, opened on first use by the reference and the probes.
	full      *tgraph.Mapped
	placement func(vertex, numWorkers int) int

	first  []string     // the warm-up job's rendered result: every measured job must equal it
	last   *core.Result // the most recent job's result, for the vertex-for-vertex check
	opMS   []float64    // the script's job latencies, for the overhead ratio
	totals clusterTotals
}

// clusterTotals sums what the coordinator reported over the script's jobs.
type clusterTotals struct {
	jobs                         int64
	makespan, startup, teardown  time.Duration
	computeNS, waitNS, deliverNS int64
	peerSendNS, directB, relayB  int64
	recoveries                   int64
	workerGraphMax               int64
	counts                       runCounts // the runs' primitive counts
}

func (w *clusterWorkload) setup(dir string) error {
	g, err := gen.Generate(gen.SkewedLike(w.p.scale), w.p.seed)
	if err != nil {
		return err
	}
	w.g, w.dir, w.partDir = g, dir, filepath.Join(dir, "parts")
	t0 := time.Now()
	if w.parts, err = cluster.WritePartitions(g, w.partDir, bspWorkers); err != nil {
		return err
	}
	w.writeMS = ms(time.Since(t0))
	// Warm-up: one whole job, untimed. It is also the result every measured
	// job is compared with.
	res, err := w.runJob("warm", nil, 0, -1)
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	w.first = serve.FormatResult(res, 0)
	w.totals = clusterTotals{}
	return nil
}

// runJob is one full coordinator job. Its spans, under root: new
// (cluster.New, which maps the full graph), serve_wait (listen, spawn the
// workers, wait for Serve to return the assembled result) and teardown
// (close, workers exit). The caller renders the result.
func (w *clusterWorkload) runJob(name string, rec *recorder, op, root int) (*core.Result, error) {
	sp := rec.begin(op, "new", root)
	reg := obs.NewRegistry()
	coord, err := cluster.New(cluster.Config{
		Workers:         bspWorkers,
		Graph:           "shard:" + w.partDir,
		Algo:            clusterAlgo,
		Params:          clusterParams,
		CheckpointEvery: clusterCkptEvery,
		Registry:        reg,
		Logger:          quiet,
	})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(op, "serve_wait", root)
	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workerErrs := make([]error, bspWorkers)
	jobDir := filepath.Join(w.dir, "job-"+name)
	for i := 0; i < bspWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = cluster.RunWorker(ctx, cluster.WorkerConfig{
				Addr:   ln.Addr().String(),
				Dir:    filepath.Join(jobDir, fmt.Sprintf("w%d", i)),
				Logger: quiet,
			})
		}()
	}
	res, err := coord.Serve(ln)
	waited := time.Since(t0)
	rec.end(sp)

	sp = rec.begin(op, "teardown", root)
	t0 = time.Now()
	coord.Close()
	if err != nil {
		cancel() // workers may still be dialing or mid-step
	}
	wg.Wait()
	cancel()
	torn := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	for i, werr := range workerErrs {
		if werr != nil {
			return nil, fmt.Errorf("worker %d: %w", i, werr)
		}
	}

	rep := coord.Report()
	t := &w.totals
	t.jobs++
	t.makespan += rep.Makespan
	t.startup += waited - rep.Makespan
	t.teardown += torn
	t.recoveries += int64(len(rep.Recoveries))
	for _, b := range rep.WorkerGraphBytes {
		t.workerGraphMax = max(t.workerGraphMax, b)
	}
	for _, a := range coord.Attribution() {
		for _, sh := range a.Shards {
			t.computeNS += sh.ComputeNS
			t.waitNS += sh.WaitNS
			t.deliverNS += sh.DeliverNS
			t.peerSendNS += sh.PeerSendNS
		}
	}
	t.directB += reg.Counter(obs.CClusterDirectBytes).Load()
	t.relayB += reg.Counter(obs.CClusterRelayBytes).Load()
	t.counts.sum(serve.RunMetrics{
		Supersteps: res.Metrics.Supersteps, ComputeCalls: res.Metrics.ComputeCalls,
		ScatterCalls: res.Metrics.ScatterCalls, Messages: res.Metrics.Messages,
		MessageBytes: res.Metrics.MessageBytes, WarpCalls: res.Stats.WarpCalls,
		WarpSuppressed: res.Stats.WarpSuppressed, ActiveIntervals: res.Stats.ActiveIntervals,
	})
	return res, nil
}

func (w *clusterWorkload) op(c, i int, rec *recorder) error {
	name := fmt.Sprintf("%d", i)
	t0 := time.Now()
	root := rec.begin(i, "op", -1)
	res, err := w.runJob(name, rec, i, root)
	if err != nil {
		rec.end(root)
		return err
	}
	sp := rec.begin(i, "format", root)
	lines := serve.FormatResult(res, 0)
	rec.end(sp)
	sp = rec.begin(i, "check", root)
	err = sameLines("job "+name, lines, w.first)
	rec.end(sp)
	rec.end(root)
	w.opMS = append(w.opMS, ms(time.Since(t0)))
	w.last = res
	// The job's checkpoint directories go once its latency is taken.
	if rmErr := os.RemoveAll(filepath.Join(w.dir, "job-"+name)); err == nil {
		err = rmErr
	}
	return err
}

// job is the clustered computation as the probes re-run it: same graph, same
// algorithm, and the vertex placement embedded in the partition files —
// placement decides message fold order, and float folds see the difference.
func (w *clusterWorkload) job() (job, error) {
	if w.full == nil {
		gm, pmeta, err := cluster.LoadGraphShard("shard:"+w.partDir, -1)
		if err != nil {
			return job{}, err
		}
		w.full, w.placement = gm, pmeta.Partitioner()
	}
	return job{g: w.g, algo: clusterAlgo, params: clusterParams, partitioner: w.placement}, nil
}

// verify checks the jobs against the single-process transported reference
// (one process, same worker count, loopback TCPTransport): the rendered
// lines every job was compared with, and the last job vertex for vertex.
func (w *clusterWorkload) verify() error {
	j, err := w.job()
	if err != nil {
		return err
	}
	want, err := j.runTransported()
	if err != nil {
		return err
	}
	if err := sameLines("cluster jobs vs transported reference", w.first, serve.FormatResult(want, 0)); err != nil {
		return err
	}
	if w.last == nil {
		return nil
	}
	for v := 0; v < w.g.NumVertices(); v++ {
		if !reflect.DeepEqual(w.last.State(v).Parts(), want.State(v).Parts()) {
			return fmt.Errorf("last job diverged at vertex %d: got %v, want %v",
				v, w.last.State(v).Parts(), want.State(v).Parts())
		}
	}
	return nil
}

func (w *clusterWorkload) counters(m *metricSet) {
	t := &w.totals
	if t.jobs == 0 {
		return
	}
	n := float64(t.jobs)
	t.counts.report(m, int(t.jobs))
	m.set("cluster.makespan_ms", ms(t.makespan)/n)
	m.set("cluster.startup_ms", ms(t.startup)/n)
	m.set("cluster.teardown_ms", ms(t.teardown)/n)
	if phases := float64(t.computeNS + t.waitNS + t.deliverNS); phases > 0 {
		m.set("cluster.compute_share", float64(t.computeNS)/phases)
		m.set("cluster.wait_share", float64(t.waitNS)/phases)
		m.set("cluster.deliver_share", float64(t.deliverNS)/phases)
	}
	if t.directB > 0 {
		m.set("cluster.peer_send_ns_per_byte", float64(t.peerSendNS)/float64(t.directB))
	}
	m.set("cluster.direct_bytes_per_op", float64(t.directB)/n)
	m.set("cluster.relay_bytes_per_op", float64(t.relayB)/n)
	m.set("cluster.worker_graph_mb_max", float64(t.workerGraphMax)/(1<<20))
	m.set("cluster.recoveries", float64(t.recoveries))
	m.set("cluster.write_partitions_ms", w.writeMS)
}

func (w *clusterWorkload) layers(m *metricSet, dir string) ([]span, error) {
	// Workers map their own partition per job; the probe opens the largest.
	var largest cluster.PartitionInfo
	for _, pi := range w.parts {
		if pi.Shard >= 0 && pi.Bytes > largest.Bytes {
			largest = pi
		}
	}
	if err := graphLayers(m, w.g, filepath.Join(w.partDir, largest.Name)); err != nil {
		return nil, err
	}
	j, err := w.job()
	if err != nil {
		return nil, err
	}
	if err := algorithmLayers(m, []job{j}); err != nil {
		return nil, err
	}
	// Base: the same job through core.Run in one process.
	if base := m.get("engine.inproc_run_ms"); base > 0 {
		m.set("cluster.overhead_ratio", median(w.opMS)/base)
	}
	return steppedLayers(m, []job{j}, filepath.Join(dir, "stepped"))
}

func (w *clusterWorkload) close() {
	if w.full != nil {
		w.full.Close()
	}
}
