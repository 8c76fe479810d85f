package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/live"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// live_refresh feeds each client's graph one tick at a time out of a MAGLike
// graph stretched over liveSnapshots ticks, so a tick is a few hundred
// events. The first livePreload ticks are ingested during set-up, in batches
// of livePreloadBatch ticks; the measured cycles continue from there. By
// tick livePreload every vertex of the profile has appeared and the first
// are about to leave, so the graph — and with it the cost of a cycle — stays
// about the same size over the measured phase instead of growing fiftyfold
// from an empty start, which would make the median a point on a steep curve.
const (
	liveSnapshots    = 240
	livePreload      = 120
	livePreloadBatch = 10
)

// liveAlgos are re-queried after every ingested tick; both are seedable, so
// the server should extend the previous tick's answer instead of starting
// cold.
var liveAlgos = []string{"eat", "rh"}

// liveClient is one client's private live graph and its script.
type liveClient struct {
	*client
	name   string
	lg     *live.Graph
	ticks  [][]stream.Event
	source tgraph.VertexID

	// The script, per step (step 0 is the warm-up cycle): the tick ingested,
	// its events request, and per algorithm the run request that follows.
	tick    []int
	ingest  [][]byte
	requery map[string][][]byte
	final   map[string][]byte // per algorithm: the last measured response

	epochsMax int64
}

// liveWorkload is live_refresh: writes beside reads. Each client owns a
// WAL-backed live graph (fsync on) behind one shared server; an operation
// posts every event of the next tick and then re-queries eat and rh over
// the window grown by that tick, reading both answers to the last byte.
type liveWorkload struct {
	p   params
	reg *obs.Registry
	srv *serve.Server
	ts  *httptest.Server
	lc  []*liveClient
}

// end is the end of the last measured window: one past the last tick.
func (lc *liveClient) end() int { return lc.tick[len(lc.tick)-1] + 1 }

// liveSource picks the query source: the vertex with the most out-edges
// among those alive before the preload ends and past the last measured tick.
func liveSource(g *tgraph.Graph, lastTick int) (tgraph.VertexID, error) {
	best, bestDeg := -1, -1
	for v := 0; v < g.NumVertices(); v++ {
		life := g.VertexAt(v).Lifespan
		if int(life.Start) < livePreload && int(life.End) > lastTick+1 && len(g.OutEdges(v)) > bestDeg {
			best, bestDeg = v, len(g.OutEdges(v))
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no vertex spans ticks %d..%d", livePreload, lastTick)
	}
	return g.VertexAt(best).ID, nil
}

// runBody is the /v1/run request for algo from source over [0, end).
func runBody(graph, algo string, source tgraph.VertexID, end int, noCache bool) ([]byte, error) {
	return json.Marshal(serve.RunRequest{Graph: graph, Algorithm: algo, NoCache: noCache,
		Params: map[string]int64{"source": int64(source)},
		Window: &serve.Window{Start: 0, End: int64(end)}})
}

// newLiveClient generates client c's graph and script: successive steps
// ingest the successive ticks from livePreload on that have events (at full
// scale every tick does; a tiny -quick graph has idle ticks, and an empty
// batch is not a valid request).
func newLiveClient(p params, c int) (*liveClient, error) {
	profile := gen.MAGLike(p.scale)
	profile.Snapshots = liveSnapshots
	g, err := gen.Generate(profile, p.seed+int64(c))
	if err != nil {
		return nil, err
	}
	lc := &liveClient{client: newClient(), name: fmt.Sprintf("live%d", c),
		requery: map[string][][]byte{}, final: map[string][]byte{}}
	if lc.ticks, err = eventLog(g); err != nil {
		return nil, err
	}
	for t := livePreload; t < len(lc.ticks) && len(lc.tick) <= p.ops; t++ {
		if len(lc.ticks[t]) > 0 {
			lc.tick = append(lc.tick, t)
		}
	}
	if len(lc.tick) <= p.ops {
		return nil, fmt.Errorf("script needs %d ticks with events after tick %d, the graph has %d", p.ops+1, livePreload, len(lc.tick))
	}
	if lc.source, err = liveSource(g, lc.tick[p.ops]); err != nil {
		return nil, err
	}
	for _, t := range lc.tick {
		body, err := json.Marshal(serve.EventsRequest{Events: serve.EncodeEvents(lc.ticks[t])})
		if err != nil {
			return nil, err
		}
		lc.ingest = append(lc.ingest, body)
		for _, algo := range liveAlgos {
			body, err := runBody(lc.name, algo, lc.source, t+1, false)
			if err != nil {
				return nil, err
			}
			lc.requery[algo] = append(lc.requery[algo], body)
		}
	}
	return lc, nil
}

// preload ingests the first livePreload ticks, livePreloadBatch ticks to a
// batch.
func (lc *liveClient) preload(lg *live.Graph) error {
	for lo := 0; lo < livePreload; lo += livePreloadBatch {
		var batch []stream.Event
		for _, tick := range lc.ticks[lo:min(lo+livePreloadBatch, livePreload)] {
			batch = append(batch, tick...)
		}
		if len(batch) == 0 {
			continue
		}
		if _, err := lg.Apply(batch); err != nil {
			return fmt.Errorf("preload ticks from %d: %w", lo, err)
		}
	}
	return nil
}

func (w *liveWorkload) setup(dir string) error {
	liveGraphs := map[string]*live.Graph{}
	for c := 0; c < w.p.clients; c++ {
		lc, err := newLiveClient(w.p, c)
		if err != nil {
			return err
		}
		w.lc = append(w.lc, lc)
		if lc.lg, err = live.Open(filepath.Join(dir, lc.name+".wal"), live.Options{Name: lc.name}); err != nil {
			return err
		}
		liveGraphs[lc.name] = lc.lg
		if err := lc.preload(lc.lg); err != nil {
			return err
		}
	}
	var err error
	w.reg = obs.NewRegistry()
	w.srv, err = serve.New(serve.Config{Live: liveGraphs, Workers: bspWorkers,
		MaxConcurrent: maxClients, Registry: w.reg})
	if err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	// Warm-up: one untimed cycle per client, which also plants the seeds the
	// first measured cycle extends.
	for c := range w.lc {
		if err := w.cycle(c, 0, nil, 0); err != nil {
			return fmt.Errorf("warm-up cycle: %w", err)
		}
		w.lc[c].counts = runCounts{}
	}
	return nil
}

// cycle runs script step k of client c (0 is the warm-up, measured operation
// i is step i+1): ingest one tick, then re-query every algorithm over the
// window that now ends with it.
func (w *liveWorkload) cycle(c, k int, rec *recorder, op int) error {
	lc := w.lc[c]
	root := rec.begin(op, "op", -1)
	defer rec.end(root)
	sp := rec.begin(op, "ingest", root)
	err := lc.post(rec, op, sp, w.ts.URL+"/v1/graphs/"+lc.name+"/events", lc.ingest[k])
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	for _, algo := range liveAlgos {
		sp := rec.begin(op, "requery", root)
		err := lc.post(rec, op, sp, w.ts.URL+"/v1/run", lc.requery[algo][k])
		if err == nil {
			chk := rec.begin(op, "check", sp)
			// The tick just ingested lies inside the window, so the previous
			// answer must not be served from the cache.
			err = checkRun(lc.buf.Bytes(), false)
			rec.end(chk)
		}
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		if k == len(lc.ingest)-1 {
			lc.final[algo] = bytes.Clone(lc.buf.Bytes())
		}
		if err := lc.counts.note(lc.buf.Bytes(), rec != nil); err != nil {
			return err
		}
	}
	lc.epochsMax = max(lc.epochsMax, lc.lg.EpochsLive())
	return nil
}

func (w *liveWorkload) op(c, i int, rec *recorder) error { return w.cycle(c, i+1, rec, i) }

// verify compares each client's final answers with a no_cache run on the
// same epoch: cold, unseeded, straight through the engine.
func (w *liveWorkload) verify() error {
	for _, lc := range w.lc {
		for _, algo := range liveAlgos {
			served := lc.final[algo]
			if served == nil {
				return fmt.Errorf("%s %s: the script never reached its last cycle", lc.name, algo)
			}
			body, err := runBody(lc.name, algo, lc.source, lc.end(), true)
			if err != nil {
				return err
			}
			if err := lc.post(nil, 0, -1, w.ts.URL+"/v1/run", body); err != nil {
				return err
			}
			var got, want serve.RunResult
			if err := json.Unmarshal(served, &got); err != nil {
				return err
			}
			if err := json.Unmarshal(lc.buf.Bytes(), &want); err != nil {
				return err
			}
			if want.Cached || want.Seeded {
				return fmt.Errorf("%s %s: no_cache reference came back cached:%v seeded:%v", lc.name, algo, want.Cached, want.Seeded)
			}
			if err := sameLines(lc.name+" "+algo+" final answer vs cold run", got.FormatLines(0), want.FormatLines(0)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *liveWorkload) counters(m *metricSet) {
	ops := w.p.ops * w.p.clients
	var total runCounts
	var epochsMax int64
	for _, lc := range w.lc {
		total.merge(&lc.counts)
		epochsMax = max(epochsMax, lc.epochsMax)
	}
	total.report(m, ops)
	serveCounters(m, w.reg, ops)
	if total.responses > 0 {
		// From the responses, so the unseeded warm-up runs stay out of it.
		m.set("serve.seed_hit_ratio", float64(total.seeded)/float64(total.responses))
	}
	m.set("serve.resp_mb_per_op", float64(total.respBytes)/float64(ops)/(1<<20))
	m.set("live.epochs_live_max", float64(epochsMax))
}

func (w *liveWorkload) layers(m *metricSet, dir string) ([]span, error) {
	lc := w.lc[0]
	end := lc.end()
	ep := lc.lg.Acquire()
	defer ep.Release()
	gsn := filepath.Join(dir, "epoch.gsn")
	if err := tgraph.WriteSnapshotFile(gsn, ep.Graph()); err != nil {
		return nil, err
	}
	if err := graphLayers(m, ep.Graph(), gsn); err != nil {
		return nil, err
	}

	// Ingest outside the server: a fresh WAL preloaded like the workload's,
	// then the ticks the script starts with, one batch each — with and
	// without fsync; the difference is the fsync tax.
	const batches = 20
	apply := func(path string, noSync bool) (float64, *live.Graph, error) {
		lg, err := live.Open(path, live.Options{NoSync: noSync})
		if err != nil {
			return 0, nil, err
		}
		if err := lc.preload(lg); err != nil {
			lg.Close()
			return 0, nil, err
		}
		var xs []float64
		for _, t := range lc.tick[:min(batches, len(lc.tick))] {
			t0 := time.Now()
			if _, err := lg.Apply(lc.ticks[t]); err != nil {
				lg.Close()
				return 0, nil, err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		return median(xs), lg, nil
	}
	syncPath := filepath.Join(dir, "probe-sync.wal")
	syncMS, lg, err := apply(syncPath, false)
	if err != nil {
		return nil, err
	}
	events := lg.Info().Events
	if err := lg.Close(); err != nil {
		return nil, err
	}
	m.set("live.apply_ms_per_batch", syncMS)
	st, err := os.Stat(syncPath)
	if err != nil {
		return nil, err
	}
	m.set("live.wal_bytes_per_event", float64(st.Size())/float64(events))
	reopen, err := timeMS(probeRounds, func() error {
		lg, err := live.Open(syncPath, live.Options{})
		if err != nil {
			return err
		}
		return lg.Close()
	})
	if err != nil {
		return nil, err
	}
	m.set("live.reopen_ms", reopen)
	noSyncMS, lg, err := apply(filepath.Join(dir, "probe-nosync.wal"), true)
	if err != nil {
		return nil, err
	}
	if err := lg.Close(); err != nil {
		return nil, err
	}
	m.set("live.apply_nosync_ms_per_batch", noSyncMS)

	// Materialize: the accumulator at the script's final size into a graph.
	acc := stream.NewAccumulator()
	for t := 0; t <= end-1; t++ {
		for _, ev := range lc.ticks[t] {
			if err := acc.Apply(ev); err != nil {
				return nil, err
			}
		}
	}
	mat, err := timeMS(probeRounds, func() error { _, err := acc.Graph(0); return err })
	if err != nil {
		return nil, err
	}
	m.set("stream.materialize_ms", mat)

	// The workload's own jobs: the final window, cold.
	win, err := tgraph.Slice(ep.Graph(), ival.New(0, ival.Time(end)))
	if err != nil {
		return nil, err
	}
	var jobs []job
	var execMS []float64
	for _, algo := range liveAlgos {
		jobs = append(jobs, job{g: win, algo: algo, params: algorithms.Params{Source: lc.source, Target: lc.source}})
		req := serve.RunRequest{Graph: lc.name, Algorithm: algo, NoCache: true,
			Params: map[string]int64{"source": int64(lc.source)},
			Window: &serve.Window{End: int64(end)}}
		t0 := time.Now()
		if _, err := w.srv.Execute(context.Background(), &req); err != nil {
			return nil, err
		}
		execMS = append(execMS, ms(time.Since(t0)))
	}
	m.set("serve.execute_ms", median(execMS))
	if err := algorithmLayers(m, jobs); err != nil {
		return nil, err
	}
	return steppedLayers(m, jobs, filepath.Join(dir, "stepped"))
}

func (w *liveWorkload) close() {
	for _, lc := range w.lc {
		lc.hc.CloseIdleConnections()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	for _, lc := range w.lc {
		if lc.lg != nil {
			lc.lg.Close()
		}
	}
}
