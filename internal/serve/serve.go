// Package serve is the temporal graph query service: a resident server that
// loads temporal graphs once and answers concurrent algorithm requests
// against them over a JSON HTTP API, the layer graphite adds over an
// interval-centric runtime.
//
// Every request flows through the same pipeline:
//
//	prepare   — resolve the graph, canonicalize algorithm + params + window,
//	            compute the request fingerprint;
//	cache     — an LRU over finished results keyed by fingerprint, so
//	            repeated or overlapping requests skip BSP entirely;
//	flight    — singleflight dedup: concurrent identical requests share one
//	            run, the stragglers wait on the leader's result;
//	admission — a bounded executor: at most MaxConcurrent runs execute while
//	            up to QueueDepth more wait; beyond that the request is
//	            rejected immediately with ErrBusy (HTTP 429);
//	run       — the BSP run itself, under a context that merges the request
//	            deadline with the server's lifetime so timeouts, disconnects
//	            and shutdown all abort at the next superstep barrier as
//	            engine.ErrCanceled.
//
// The server is instrumented end to end through internal/obs: per-endpoint
// request counters and latency histograms, cache hit/miss counters, queue and
// in-flight gauges, and an optional per-run tracer attachment. Everything is
// visible on /metrics, next to /debug/pprof.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/live"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
	"sync"
)

// Typed service errors; the HTTP layer maps them to status codes.
var (
	// ErrBadRequest marks malformed or semantically invalid requests (400).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrUnknownGraph is returned for a graph name the server did not load (404).
	ErrUnknownGraph = errors.New("serve: unknown graph")
	// ErrUnknownJob is returned for an absent job id (404).
	ErrUnknownJob = errors.New("serve: unknown job")
	// ErrBusy is the admission-control rejection: the executor queue is full (429).
	ErrBusy = errors.New("serve: executor queue full")
	// ErrDraining rejects new work while the server drains for shutdown (503).
	ErrDraining = errors.New("serve: server draining")
)

// Registry names the serving layer publishes; everything else the server
// records is per-endpoint ("serve.http.<name>.requests" / ".errors" /
// ".latency_ns").
const (
	CCacheHits        = "serve.cache.hits"
	CCacheMisses      = "serve.cache.misses"
	GCacheSize        = "serve.cache.size"
	CFlightDedup      = "serve.flight.dedup"
	CRunsExecuted     = "serve.runs.executed"
	CRunsCanceled     = "serve.runs.canceled"
	CRunsFailed       = "serve.runs.failed"
	CRejectedBusy     = "serve.rejected.busy"
	CRejectedDraining = "serve.rejected.draining"
	GRunsInflight     = "serve.runs.inflight"
	GQueueDepth       = "serve.queue.depth"
	GJobsActive       = "serve.jobs.active"
	CJobsSubmitted    = "serve.jobs.submitted"
	HRunLatencyNS     = "serve.run.latency_ns"
	CSeedHits         = "serve.seed.hits"
	CSeedStores       = "serve.seed.stores"
	GSeedSize         = "serve.seed.size"
)

// Defaults for zero Config fields.
const (
	DefaultQueueDepth = 64
	DefaultCacheSize  = 128
	DefaultTimeout    = 30 * time.Second
)

// DefaultMaxJobs caps retained async jobs: finished jobs are evicted oldest
// first past it.
const DefaultMaxJobs = 256

// Config parameterizes a Server.
type Config struct {
	// Graphs are the pre-loaded temporal graphs the server answers queries
	// against, by name. At least one graph — static or live — is required.
	Graphs map[string]*tgraph.Graph
	// Live are WAL-backed mutable graphs, by name (disjoint from Graphs).
	// Queries run against immutable epoch snapshots acquired per request;
	// POST /v1/graphs/{id}/events appends mutation batches. A live graph may
	// start empty and grow entirely through the API.
	Live map[string]*live.Graph
	// MaxConcurrent bounds simultaneously executing BSP runs; zero means
	// GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth bounds runs waiting for an executor slot beyond
	// MaxConcurrent; a request arriving past that is rejected with ErrBusy.
	// Zero means DefaultQueueDepth.
	QueueDepth int
	// CacheSize is the result-cache capacity in entries; zero means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// RequestTimeout is the per-request deadline applied when a request
	// carries none; zero means DefaultTimeout.
	RequestTimeout time.Duration
	// Workers is the BSP worker count per run when a request does not choose
	// one; zero means GOMAXPROCS. PR, LCC and TC's result bits depend on the
	// worker count, so the effective one is part of the cache fingerprint.
	Workers int
	// Registry receives the serving-layer metrics; nil creates a private one.
	Registry *obs.Registry
}

// Server is a resident temporal graph query service. Create with New, expose
// with Handler, stop with Drain (graceful) and/or Close.
type Server struct {
	cfg        Config
	reg        *obs.Registry
	graphs     map[string]*tgraph.Graph
	liveGraphs map[string]*live.Graph
	names      []string // sorted graph names, static and live

	cache *lru[string, *RunResult]
	seeds *seedCache
	jobs  *jobStore

	flightMu sync.Mutex
	flight   map[string]*call

	// Admission state: reserved counts leaders holding an executor ticket
	// (running or queued); draining rejects new reservations and drainCh
	// waiters are closed when the last ticket is released.
	admMu       sync.Mutex
	reserved    int
	maxAdmitted int
	draining    bool
	drainCh     []chan struct{}

	sem chan struct{} // executor slots, cap MaxConcurrent

	root      context.Context // canceled by Close: aborts every running job
	stop      context.CancelFunc
	closeOnce sync.Once

	m serveMetrics
}

type serveMetrics struct {
	cacheHits, cacheMisses         *obs.Counter
	dedup                          *obs.Counter
	executed, canceled, failed     *obs.Counter
	rejectedBusy, rejectedDraining *obs.Counter
	jobsSubmitted                  *obs.Counter
	seedHits, seedStores           *obs.Counter
	cacheSize, inflight, queued    *obs.Gauge
	jobsActive, seedSize           *obs.Gauge
	runLatency                     *obs.Histogram
}

// call is one in-flight singleflight run: the leader executes, completes the
// call and closes done; joiners wait on done.
type call struct {
	owns bool // registered in the flight map (cacheable request)
	done chan struct{}
	res  *RunResult
	err  error
}

// New builds a Server over the given pre-loaded graphs.
func New(cfg Config) (*Server, error) {
	if len(cfg.Graphs) == 0 && len(cfg.Live) == 0 {
		return nil, fmt.Errorf("%w: no graphs configured", ErrBadRequest)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = DefaultCacheSize
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultTimeout
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	root, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		graphs:      make(map[string]*tgraph.Graph, len(cfg.Graphs)),
		liveGraphs:  make(map[string]*live.Graph, len(cfg.Live)),
		cache:       newLRU[string, *RunResult](cfg.CacheSize),
		seeds:       newSeedCache(cfg.CacheSize),
		flight:      map[string]*call{},
		maxAdmitted: cfg.MaxConcurrent + cfg.QueueDepth,
		sem:         make(chan struct{}, cfg.MaxConcurrent),
		root:        root,
		stop:        stop,
	}
	for name, g := range cfg.Graphs {
		if g == nil || g.NumVertices() == 0 {
			return nil, fmt.Errorf("%w: graph %q is empty", ErrBadRequest, name)
		}
		s.graphs[name] = g
		s.names = append(s.names, name)
	}
	// Live graphs, unlike static ones, may legitimately be empty at startup:
	// they grow through the events endpoint. Queries against a still-empty
	// epoch are rejected per request instead.
	for name, lg := range cfg.Live {
		if lg == nil {
			return nil, fmt.Errorf("%w: live graph %q is nil", ErrBadRequest, name)
		}
		if _, dup := s.graphs[name]; dup {
			return nil, fmt.Errorf("%w: graph %q configured both static and live", ErrBadRequest, name)
		}
		s.liveGraphs[name] = lg
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	s.m = serveMetrics{
		cacheHits:        reg.Counter(CCacheHits),
		cacheMisses:      reg.Counter(CCacheMisses),
		dedup:            reg.Counter(CFlightDedup),
		executed:         reg.Counter(CRunsExecuted),
		canceled:         reg.Counter(CRunsCanceled),
		failed:           reg.Counter(CRunsFailed),
		rejectedBusy:     reg.Counter(CRejectedBusy),
		rejectedDraining: reg.Counter(CRejectedDraining),
		jobsSubmitted:    reg.Counter(CJobsSubmitted),
		seedHits:         reg.Counter(CSeedHits),
		seedStores:       reg.Counter(CSeedStores),
		seedSize:         reg.Gauge(GSeedSize),
		cacheSize:        reg.Gauge(GCacheSize),
		inflight:         reg.Gauge(GRunsInflight),
		queued:           reg.Gauge(GQueueDepth),
		jobsActive:       reg.Gauge(GJobsActive),
		runLatency:       reg.Histogram(HRunLatencyNS),
	}
	s.jobs = newJobStore(s.m.jobsActive, s.m.jobsSubmitted)
	return s, nil
}

// Registry returns the registry the server publishes its metrics into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// GraphNames lists the loaded graphs, sorted.
func (s *Server) GraphNames() []string { return append([]string(nil), s.names...) }

// prepared is a request resolved to canonical form: the semantic identity of
// the run, plus everything the executor needs to start it.
type prepared struct {
	graphName string
	algo      string
	g         *tgraph.Graph
	params    map[string]int64
	explicit  map[string]bool // params the caller actually sent, for validation
	window    ival.Interval
	workers   int
	fp        string
	span      string
	noCache   bool

	// Live-graph resolution. gver is the graph identity the fingerprint is
	// computed over: "name@effectiveEpoch" for a live graph, so mutation
	// batches that can affect the window retire its cache entries while
	// untouched windows keep hitting. epoch pins the immutable snapshot g
	// reads from until close(); lg backs the at-use seed validity check.
	gver  string
	eff   uint64
	epoch *live.Epoch
	lg    *live.Graph

	releaseOnce sync.Once
}

// close releases the prepared request's epoch reference, if any; every path
// out of Execute/Submit must reach it exactly once (it is idempotent).
func (p *prepared) close() {
	if p.epoch != nil {
		p.releaseOnce.Do(p.epoch.Release)
	}
}

// prepare canonicalizes a request and computes its fingerprint. It performs
// no graph work beyond name resolution (for a live graph: acquiring the
// current epoch snapshot), so rejects are cheap.
func (s *Server) prepare(req *RunRequest) (*prepared, error) {
	g, ok := s.graphs[req.Graph]
	lg := s.liveGraphs[req.Graph]
	if !ok && lg == nil {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownGraph, req.Graph, s.names)
	}
	algo, err := CanonicalAlgo(req.Algorithm)
	if err != nil {
		return nil, err
	}
	params, err := normalizeParams(req.Params)
	if err != nil {
		return nil, err
	}
	window, err := normalizeWindow(req.Window)
	if err != nil {
		return nil, err
	}
	explicit := make(map[string]bool, len(req.Params))
	for k := range req.Params {
		explicit[k] = true
	}
	// Every admitted request carries a run-scoped span ID: the client's, or
	// one minted here. The span is observability identity, not semantic
	// identity — it is deliberately NOT part of the fingerprint, and a
	// cached or deduplicated response reports the span of the run that
	// actually produced the result.
	span := req.Span
	if span == "" {
		span = obs.NewSpanID()
	}
	p := &prepared{
		graphName: req.Graph,
		algo:      algo,
		g:         g,
		params:    params,
		explicit:  explicit,
		window:    window,
		span:      span,
		noCache:   req.NoCache,
		gver:      req.Graph,
	}
	if lg != nil {
		// Acquire last, after every rejectable check: no error path below
		// this point may leak the epoch reference.
		ep, eff := lg.AcquireEffective(window)
		p.g, p.epoch, p.lg, p.eff = ep.Graph(), ep, lg, eff
		p.gver = fmt.Sprintf("%s@%d", req.Graph, eff)
	}
	// The effective worker count, clamped to the vertices as engine.New
	// clamps it: PR, LCC and TC's result bits depend on it.
	p.workers = req.Workers
	if p.workers <= 0 {
		p.workers = s.cfg.Workers
	}
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	p.workers = min(p.workers, p.g.NumVertices())
	p.fp = Fingerprint(p.gver, algo, params, window, p.workers)
	return p, nil
}

// admission is begin's verdict: exactly one field is set.
type admission struct {
	cached *RunResult // result already in the cache
	joined *call      // identical run in flight: wait on it
	lead   *call      // this caller runs; it holds an executor ticket
}

// begin resolves a prepared request against the cache, the flight map and
// admission control, in that order. Cache hits and singleflight joins are
// free: only leaders consume executor tickets, so duplicate traffic cannot
// exhaust the queue. A returned lead call obligates the caller to finish()
// it (which also releases the ticket).
func (s *Server) begin(p *prepared, noCache bool) (admission, error) {
	if !noCache {
		if res, ok := s.cache.get(p.fp, nil); ok {
			s.m.cacheHits.Inc()
			return admission{cached: res}, nil
		}
	}
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if !noCache {
		if c, ok := s.flight[p.fp]; ok {
			s.m.dedup.Inc()
			return admission{joined: c}, nil
		}
	}
	if err := s.reserve(); err != nil {
		return admission{}, err
	}
	c := &call{owns: !noCache, done: make(chan struct{})}
	if c.owns {
		s.flight[p.fp] = c
		s.m.cacheMisses.Inc()
	}
	return admission{lead: c}, nil
}

// finish completes a leader's call: publish the result to the cache, wake the
// joiners, release the executor ticket. The leader gets a copy, as joiners
// and hits do: the shared result itself is never handed out.
func (s *Server) finish(p *prepared, c *call, res *RunResult, err error) (*RunResult, error) {
	if err == nil && c.owns {
		s.cache.put(p.fp, res, nil)
		s.m.cacheSize.Set(int64(s.cache.len()))
	}
	s.flightMu.Lock()
	c.res, c.err = res, err
	if c.owns {
		delete(s.flight, p.fp)
	}
	s.flightMu.Unlock()
	close(c.done)
	s.release()
	if err != nil {
		return nil, err
	}
	return resultCopy(res, false), nil
}

// reserve claims one executor ticket (run or queue slot) or rejects.
func (s *Server) reserve() error {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	if s.draining {
		s.m.rejectedDraining.Inc()
		return ErrDraining
	}
	if s.reserved >= s.maxAdmitted {
		s.m.rejectedBusy.Inc()
		return ErrBusy
	}
	s.reserved++
	return nil
}

// release returns a ticket and wakes drain waiters on the last one.
func (s *Server) release() {
	s.admMu.Lock()
	s.reserved--
	var wake []chan struct{}
	if s.reserved == 0 && s.draining {
		wake, s.drainCh = s.drainCh, nil
	}
	s.admMu.Unlock()
	for _, ch := range wake {
		close(ch)
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	return s.draining
}

// Drain begins a graceful shutdown: new runs are rejected with ErrDraining
// while in-flight and queued runs execute to completion. It returns once the
// last executor ticket is released, or with ctx's error if the grace period
// expires first (the caller then typically Closes to hard-abort).
func (s *Server) Drain(ctx context.Context) error {
	s.admMu.Lock()
	s.draining = true
	if s.reserved == 0 {
		s.admMu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	s.drainCh = append(s.drainCh, ch)
	s.admMu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close hard-stops the server: new work is rejected and the lifetime context
// is canceled, which aborts every running job at its next superstep barrier.
// It waits for the executor to empty before returning.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.admMu.Lock()
		s.draining = true
		s.admMu.Unlock()
		s.stop()
		_ = s.Drain(context.Background())
	})
	return nil
}

// Execute answers one request synchronously: through the cache, deduplicated
// against identical in-flight runs, or by running BSP under ctx. The typed
// errors (ErrBusy, ErrDraining, ErrBadRequest, ErrUnknownGraph,
// engine.ErrCanceled) describe every non-success outcome.
func (s *Server) Execute(ctx context.Context, req *RunRequest) (*RunResult, error) {
	p, err := s.prepare(req)
	if err != nil {
		return nil, err
	}
	defer p.close()
	adm, err := s.begin(p, req.NoCache)
	if err != nil {
		return nil, err
	}
	switch {
	case adm.cached != nil:
		return resultCopy(adm.cached, true), nil
	case adm.joined != nil:
		select {
		case <-adm.joined.done:
			if adm.joined.err != nil {
				return nil, adm.joined.err
			}
			return resultCopy(adm.joined.res, true), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	default:
		res, err := s.runBSP(ctx, p)
		return s.finish(p, adm.lead, res, err)
	}
}

// runBSP waits for an executor slot, then executes the prepared run under a
// context that additionally aborts when the server closes. Restricting the
// run to the request window, parameter validation against the graph inside
// it, and result shaping all happen here, on the executor's time.
func (s *Server) runBSP(ctx context.Context, p *prepared) (*RunResult, error) {
	s.m.queued.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.m.queued.Add(-1)
	case <-ctx.Done():
		s.m.queued.Add(-1)
		return nil, ctx.Err()
	case <-s.root.Done():
		s.m.queued.Add(-1)
		return nil, ErrDraining
	}
	defer func() { <-s.sem }()
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.root, cancel)
	defer stop()

	g := p.g
	if g.NumVertices() == 0 {
		// Only a live graph can be empty (New rejects empty static graphs):
		// no events have been ingested yet.
		return nil, fmt.Errorf("%w: graph %q is empty at epoch %d (no events ingested)",
			ErrBadRequest, p.graphName, p.eff)
	}
	// A vertex is in the window when its lifespan meets it.
	if g.NumVerticesIn(p.window) == 0 {
		return nil, fmt.Errorf("%w: window %s contains no vertices", ErrBadRequest, windowLabel(p.window))
	}
	for _, k := range []string{"source", "target"} {
		if !p.explicit[k] {
			continue
		}
		if i := g.IndexOf(tgraph.VertexID(p.params[k])); i < 0 || !g.VertexAt(i).Lifespan.Intersects(p.window) {
			return nil, fmt.Errorf("%w: %s vertex %d not in graph %q window %s",
				ErrBadRequest, k, p.params[k], p.graphName, windowLabel(p.window))
		}
	}
	params := algorithms.Params{
		Source:     tgraph.VertexID(p.params["source"]),
		Target:     tgraph.VertexID(p.params["target"]),
		StartTime:  ival.Time(p.params["start"]),
		Deadline:   ival.Time(p.params["deadline"]),
		Iterations: int(p.params["iterations"]),
		// A window is a view: the run keeps g and its memoised scatter plan.
		Window: p.window,
	}
	prog, opts, err := algorithms.New(g, p.algo, params)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	opts.NumWorkers = p.workers
	// Incremental recomputation: when the request strictly extends a window a
	// prior seedable run answered — same graph, algorithm, params and window
	// start, graph unchanged below the prior end — start from that run's
	// terminal states instead of superstep zero. Results are bit-identical
	// either way (the differential tests in algorithms pin this), so seeding
	// is invisible to the cache; NoCache opts out for clean cold timings.
	skey := seedKey{graph: p.graphName, algo: p.algo, params: paramsKey(p.params), start: p.window.Start}
	seedable := algorithms.SupportsIncremental(p.algo)
	if seedable && !p.noCache {
		if e, ok := s.seeds.lookup(skey, p.window.End); ok && s.seedValid(p, e) {
			opts.SeedStates = e.seed.StatesFor(g)
			s.m.seedHits.Inc()
		}
	}
	opts.Registry = s.reg
	opts.Context = runCtx
	opts.Span = p.span

	start := time.Now()
	r, err := core.Run(g, prog, opts)
	s.m.runLatency.Observe(time.Since(start))
	if err != nil {
		if errors.Is(err, engine.ErrCanceled) {
			s.m.canceled.Inc()
			// Attribute the abort: a canceled runCtx with a live request
			// context means the server was shutting down.
			if ctx.Err() == nil && s.root.Err() != nil {
				return nil, fmt.Errorf("%w: %v", ErrDraining, err)
			}
		} else {
			s.m.failed.Inc()
		}
		return nil, err
	}
	s.m.executed.Inc()
	// Retain the terminal states for future window extensions. Unbounded
	// windows are never retained: nothing can extend past infinity.
	if seedable && !p.noCache && p.window.End != ival.Infinity {
		s.seeds.put(&seedEntry{key: skey, end: p.window.End, eff: p.eff, seed: r.Seed()})
		s.m.seedStores.Inc()
		s.m.seedSize.Set(int64(s.seeds.len()))
	}
	res := buildResult(p, r)
	res.Seeded = opts.SeedStates != nil
	return res, nil
}

// seedValid reports whether a retained run's graph still agrees with the
// request's snapshot below the retained window's end. Static graphs never
// change; for a live graph the retained effective epoch must still be the
// effective epoch of the retained window — evaluated against the latest
// marks, which can only over-reject (a batch landing after our snapshot was
// acquired bumps the effective epoch and skips a seed that was still valid),
// never under-reject.
func (s *Server) seedValid(p *prepared, e *seedEntry) bool {
	if p.lg == nil {
		return true
	}
	return p.lg.EffectiveEpoch(ival.New(p.window.Start, e.end)) == e.eff
}

// resultCopy returns a response's own copy of a shared result, with its
// Cached flag; the vertices' chunks are shared, and never written.
func resultCopy(res *RunResult, cached bool) *RunResult {
	cp := *res
	cp.Cached = cached
	return &cp
}
