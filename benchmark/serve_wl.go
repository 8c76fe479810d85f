package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

// serveGraph is the name the served graph is loaded under.
const serveGraph = "twitter"

// serveAlgos is the round-robin algorithm mix of the serve workloads: the
// four single-source traversals of the catalog.
var serveAlgos = []string{"sssp", "eat", "tmst", "bfs"}

// hotPool is how many distinct queries serve_hot draws from.
const hotPool = 32

// query is one scripted /v1/run request: its identity, for the reference
// run, and the exact request bytes the client sends.
type query struct {
	Algo      string
	Source    tgraph.VertexID
	WindowEnd int64 // 0: the graph's whole lifetime; else the window [0, WindowEnd)
	Body      []byte
}

// request is the query as the server's wire type.
func (q *query) request(noCache bool) *serve.RunRequest {
	req := &serve.RunRequest{Graph: serveGraph, Algorithm: q.Algo, NoCache: noCache,
		Params: map[string]int64{"source": int64(q.Source)}}
	if q.WindowEnd > 0 {
		req.Window = &serve.Window{Start: 0, End: q.WindowEnd}
	}
	return req
}

// job is the query as the server runs it: sliced to the window, catalog
// program, bspWorkers workers.
func (q *query) job(g *tgraph.Graph) (job, error) {
	j := job{g: g, algo: q.Algo, params: algorithms.Params{Source: q.Source, Target: q.Source}}
	if q.WindowEnd > 0 {
		var err error
		if j.g, err = tgraph.Slice(g, ival.New(0, ival.Time(q.WindowEnd))); err != nil {
			return job{}, err
		}
	}
	return j, nil
}

// coldQueries generates n distinct queries over g from the seed: algorithms
// round-robin, every request a different source so no two share a cache
// entry, and one request in four restricted to the first half of the graph's
// lifetime (the position rotates so every algorithm gets windowed requests).
// Sources are drawn, in seeded order, from the vertices that have an
// out-edge: a traversal from a sink is an empty run.
func coldQueries(g *tgraph.Graph, seed int64, n int) ([]query, error) {
	var sources []tgraph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if len(g.OutEdges(v)) > 0 {
			sources = append(sources, g.VertexAt(v).ID)
		}
	}
	if n > len(sources) {
		return nil, fmt.Errorf("script wants %d distinct sources, graph has %d vertices with out-edges", n, len(sources))
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
	half := int64(g.Horizon()) / 2
	qs := make([]query, n)
	for k := range qs {
		q := query{Algo: serveAlgos[k%len(serveAlgos)], Source: sources[k]}
		if k%4 == (k/4)%4 {
			q.WindowEnd = half
		}
		body, err := json.Marshal(q.request(false))
		if err != nil {
			return nil, err
		}
		q.Body = body
		qs[k] = q
	}
	return qs, nil
}

// hotDraws generates one client's serve_hot script: n indices into the
// warmed pool. At any moment popularity is Zipf(1.2) — a few queries take
// most of the traffic — but the ranking rotates once through the pool over
// the script, so every query is the hot one for an equal share of the run.
// Without the rotation the top-ranked query alone takes a third of the
// requests and the median latency is that one query's response size, a coin
// the seed tosses.
func hotDraws(seed int64, client, n, pool int) []int {
	r := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	z := rand.NewZipf(r, 1.2, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = (int(z.Uint64()) + i*pool/n) % pool
	}
	return out
}

// serveWorkload is serve_cold and serve_hot: an in-process graphite-serve
// over loopback TCP holding one TwitterLike graph opened from a .gsn file.
type serveWorkload struct {
	p   params
	hot bool

	g      *tgraph.Graph
	mapped *tgraph.Mapped
	gsn    string
	reg    *obs.Registry
	srv    *serve.Server
	ts     *httptest.Server

	queries []query // cold: the whole script, op k = i*clients+c; hot: the pool
	draws   [][]int // hot: per client pool indices
	hc      []*client
}

func (w *serveWorkload) setup(dir string) error {
	g, err := gen.Generate(gen.TwitterLike(w.p.scale), w.p.seed)
	if err != nil {
		return err
	}
	w.gsn = filepath.Join(dir, "twitter.gsn")
	if err := tgraph.WriteSnapshotFile(w.gsn, g); err != nil {
		return err
	}
	if w.mapped, err = tgraph.OpenMapped(w.gsn); err != nil {
		return err
	}
	w.g = w.mapped.Graph
	w.reg = obs.NewRegistry()
	w.srv, err = serve.New(serve.Config{
		Graphs:        map[string]*tgraph.Graph{serveGraph: w.g},
		Workers:       bspWorkers,
		MaxConcurrent: maxClients,
		// Every result of a run stays cached, so the verification pass can
		// read back exactly what was served.
		CacheSize: 4096,
		Registry:  w.reg,
	})
	if err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	for c := 0; c < w.p.clients; c++ {
		w.hc = append(w.hc, newClient())
	}
	n := w.p.ops * w.p.clients
	if w.hot {
		n = hotPool
	}
	if w.queries, err = coldQueries(w.g, w.p.seed, n); err != nil {
		return err
	}
	if !w.hot {
		return nil
	}
	// Warm-up: run every pool query once, untimed, so the measured script
	// only ever hits the cache.
	for c := range w.hc {
		w.draws = append(w.draws, hotDraws(w.p.seed, c, w.p.ops, hotPool))
	}
	return eachClient(w.p.clients, func(c int) error {
		for k := c; k < len(w.queries); k += w.p.clients {
			if err := w.hc[c].post(nil, 0, -1, w.ts.URL+"/v1/run", w.queries[k].Body); err != nil {
				return fmt.Errorf("warm-up query %d: %w", k, err)
			}
		}
		return nil
	})
}

// scripted returns the query operation i of client c sends.
func (w *serveWorkload) scripted(c, i int) *query {
	if w.hot {
		return &w.queries[w.draws[c][i]]
	}
	return &w.queries[i*w.p.clients+c]
}

func (w *serveWorkload) op(c, i int, rec *recorder) error {
	st := w.hc[c]
	root := rec.begin(i, "op", -1)
	err := st.post(rec, i, root, w.ts.URL+"/v1/run", w.scripted(c, i).Body)
	if err == nil {
		sp := rec.begin(i, "check", root)
		err = checkRun(st.buf.Bytes(), w.hot)
		rec.end(sp)
	}
	rec.end(root)
	if err != nil {
		return err
	}
	// A cached response repeats the producing run's metrics, so a hot script
	// gathers none: it ran nothing.
	return st.counts.note(st.buf.Bytes(), rec != nil && !w.hot)
}

// reference runs q directly on the engine and renders the lines the CLI
// would print.
func reference(g *tgraph.Graph, q *query) ([]string, error) {
	j, err := q.job(g)
	if err != nil {
		return nil, err
	}
	r, err := j.run()
	if err != nil {
		return nil, err
	}
	return serve.FormatResult(r, 0), nil
}

// corruptExpected, when set by a test, tampers with a reference before it is
// compared — the proof that a wrong answer fails the command.
var corruptExpected func(lines []string)

// sameLines compares a served result with its reference line for line.
func sameLines(what string, got, want []string) error {
	if corruptExpected != nil {
		corruptExpected(want)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: served %d vertices, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: line %d differs:\n  served    %s\n  reference %s", what, i, got[i], want[i])
		}
	}
	return nil
}

// verify reads every distinct query of the script back from the server (all
// are cached by now, so this is what the clients were served) and compares
// it with a direct core.Run, split over the two client connections.
func (w *serveWorkload) verify() error {
	return eachClient(w.p.clients, func(c int) error {
		st := w.hc[c]
		for k := c; k < len(w.queries); k += w.p.clients {
			q := &w.queries[k]
			what := fmt.Sprintf("query %d (%s source %d window end %d)", k, q.Algo, q.Source, q.WindowEnd)
			if err := st.post(nil, 0, -1, w.ts.URL+"/v1/run", q.Body); err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			var res serve.RunResult
			if err := json.Unmarshal(st.buf.Bytes(), &res); err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			if !res.Cached {
				return fmt.Errorf("%s: not cached after the script ran", what)
			}
			want, err := reference(w.g, q)
			if err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			if err := sameLines(what, res.FormatLines(0), want); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *serveWorkload) counters(m *metricSet) {
	ops := w.p.ops * w.p.clients
	var total runCounts
	for _, st := range w.hc {
		total.merge(&st.counts)
	}
	total.report(m, ops)
	m.set("serve.resp_mb_per_op", float64(total.respBytes)/float64(ops)/(1<<20))
	serveCounters(m, w.reg, ops)
}

// serveCounters reports the server's own registry over a script of ops
// requests. Warm-up requests are in the registry too; they are misses by
// construction, so the ratios are taken over the script's requests only.
func serveCounters(m *metricSet, reg *obs.Registry, ops int) {
	hits := reg.Counter(serve.CCacheHits).Load()
	m.set("serve.cache_hit_ratio", float64(hits)/float64(ops))
	m.set("serve.dedup_ratio", float64(reg.Counter(serve.CFlightDedup).Load())/float64(ops))
	m.set("serve.rejected_busy", float64(reg.Counter(serve.CRejectedBusy).Load()))
	m.set("serve.run_latency_p50_ms", ms(reg.Histogram(serve.HRunLatencyNS).Quantile(0.5)))
	m.set("serve.http_p99_ms", ms(reg.Histogram("serve.http.run.latency_ns").Quantile(0.99)))
	if ex := reg.Counter(serve.CRunsExecuted).Load(); ex > 0 {
		m.set("serve.seed_hit_ratio", float64(reg.Counter(serve.CSeedHits).Load())/float64(ex))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (w *serveWorkload) layers(m *metricSet, dir string) ([]span, error) {
	if err := graphLayers(m, w.g, w.gsn); err != nil {
		return nil, err
	}
	// Execute without HTTP: a cached query many times here, and — cold only,
	// below — the script's first queries again with no_cache.
	ctx := context.Background()
	hitReq := w.queries[0].request(false)
	const hitRounds = 2000
	t0 := time.Now()
	for i := 0; i < hitRounds; i++ {
		res, err := w.srv.Execute(ctx, hitReq)
		if err != nil {
			return nil, err
		}
		if !res.Cached {
			return nil, fmt.Errorf("serve.execute_hit_us: query 0 not cached")
		}
	}
	m.set("serve.execute_hit_us", float64(time.Since(t0).Nanoseconds())/1e3/hitRounds)

	// Render: the server's own encoding of a result, per MB produced.
	res, err := w.srv.Execute(ctx, hitReq)
	if err != nil {
		return nil, err
	}
	var renderMS, renderMB []float64
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return nil, err
		}
		renderMS = append(renderMS, ms(time.Since(t0)))
		renderMB = append(renderMB, float64(buf.Len())/(1<<20))
	}
	m.set("serve.render_ms_per_mb", median(renderMS)/median(renderMB))
	if w.hot {
		return nil, nil
	}

	// The workload's own jobs: two rounds of the algorithm mix, the first
	// queries of the script.
	sample := w.queries[:min(len(w.queries), 2*len(serveAlgos))]
	var jobs []job
	var execMS []float64
	for i := range sample {
		j, err := sample[i].job(w.g)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		t0 := time.Now()
		if _, err := w.srv.Execute(ctx, sample[i].request(true)); err != nil {
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

func (w *serveWorkload) close() {
	for _, st := range w.hc {
		st.hc.CloseIdleConnections()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.mapped != nil {
		w.mapped.Close()
	}
}
