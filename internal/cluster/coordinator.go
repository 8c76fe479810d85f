package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// Defaults for Config zero values.
const (
	DefaultCheckpointEvery = 2
	DefaultLease           = 2 * time.Second
	DefaultRejoinTimeout   = 30 * time.Second
)

// Config parameterizes a coordinator.
type Config struct {
	// Workers is the cluster width: the number of worker processes, which
	// is also the shard count and the engine's NumWorkers in every process.
	Workers int
	// Graph is the shared graph spec (see LoadGraphShard).
	Graph string
	// Algo and Params pick the computation from the algorithm catalog.
	Algo   string
	Params algorithms.Params
	// CheckpointEvery is the durable checkpoint cadence k: generation g is
	// captured at the barrier closing superstep g*k, i.e. the cluster can
	// always roll back to "about to execute superstep g*k+1". Zero means
	// DefaultCheckpointEvery.
	CheckpointEvery int
	// Lease is how long a worker may go silent before it is declared dead.
	// Workers heartbeat at Lease/4. Zero means DefaultLease.
	Lease time.Duration
	// RejoinTimeout bounds how long a recovery waits for a replacement
	// worker before the run is abandoned. Zero means DefaultRejoinTimeout.
	RejoinTimeout time.Duration
	// MaxRecoveries bounds rollback-and-replay cycles over the run, one per
	// worker lost (engine.Config.MaxRecoveries): zero means
	// engine.DefaultMaxRecoveries, negative means unlimited.
	MaxRecoveries int
	// Span is the run-scoped span ID stamped on the coordinator's trace and
	// handed to every worker with its assignment, so all N+1 traces of the
	// run carry the same ID. Empty mints one in New (obs.NewSpanID).
	Span string
	// Registry receives the fleet gauges, counters and histograms; nil
	// creates a private one. Tracer, when set, receives the coordinator's
	// full run trace: the standard run/superstep lifecycle events plus the
	// cluster-specific ones (worker_join/worker_lost/recovery, and
	// one cluster_step per closed superstep). Logger nil means
	// slog.Default.
	Registry *obs.Registry
	Tracer   obs.Tracer
	Logger   *slog.Logger
}

// attrRingCap bounds the in-memory attribution history served by
// /debug/cluster; older supersteps fall off the front.
const attrRingCap = 512

// RecoveryInfo describes one completed rollback-and-replay cycle: the
// barrier's recovery event, in the epoch it ended in, and what the
// coordinator measured around it.
type RecoveryInfo struct {
	obs.Recovery
	Detect        time.Duration `json:"detect_ns"`      // silence observed before declaring death
	MTTR          time.Duration `json:"mttr_ns"`        // detection → superstep broadcast resumed
	RestoredBytes int64         `json:"restored_bytes"` // checkpoint bytes reloaded, all shards
}

// Report summarizes a finished (or aborted) cluster run; its record is the
// Result's run_end. Supersteps and Makespan are set when the run finishes; a
// recovery is listed as it closes.
type Report struct {
	Supersteps int            `json:"supersteps"` // executed, including replays
	Recoveries []RecoveryInfo `json:"recoveries,omitempty"`
	Makespan   time.Duration  `json:"makespan_ns"`
	// WorkerGraphBytes is each shard's reported resident graph size (mapped
	// snapshot bytes, or in-memory footprint for built graphs) — the
	// partitioning win: under shard: specs these shrink as shards grow.
	WorkerGraphBytes []int64 `json:"worker_graph_bytes,omitempty"`
}

// Stats is a point-in-time view of the cluster for readiness probes.
type Stats struct {
	State      string `json:"state"` // waiting | running | recovering | collecting | done
	Live       int    `json:"live"`
	Workers    int    `json:"workers"`
	Epoch      int    `json:"epoch"`
	Superstep  int    `json:"superstep"`
	Recoveries int    `json:"recoveries"`
}

// driver states.
const (
	stWaiting = "waiting"
	stRunning = "running"
	stRecover = "recovering"
	stCollect = "collecting"
	stDone    = "done"
)

// Coordinator drives one cluster run. Create with New, run with Serve.
type Coordinator struct {
	cfg     Config
	g       *tgraph.Graph
	barrier *engine.Barrier // closes every superstep: aggregates, master, halt rule
	naggs   int             // aggregator partials a barrier report carries
	states  codec.Payload   // what shard results carry vertex states in

	quit  chan struct{}
	qonce sync.Once

	mu     sync.Mutex
	stats  Stats
	report Report
	attr   []obs.ClusterStep
}

// coordIO is everything the driver does to the world outside it: write one
// frame to a connection (an error means the connection is dead), close a
// connection, read the clock. The driver is called from one goroutine and
// performs every write itself, synchronously, so per-connection write order
// is its processing order: a worker sees fStep for a superstep before any
// batch of that superstep the coordinator forwards.
type coordIO interface {
	send(conn int, ftype byte, payload []byte) error
	close(conn int)
	now() time.Time
}

// event is one input to the driver: a connection opened (with the peer's
// address), a frame read from it, the connection lost, or a lease tick.
// Connections are named by the ids the I/O side gives them.
type event struct {
	kind    int // evConn | evFrame | evDead | evTick
	conn    int
	addr    string
	ftype   byte
	payload []byte
	err     error
}

const (
	evConn = iota
	evFrame
	evDead
	evTick
)

// wconn is the driver's view of one worker connection.
type wconn struct {
	id       int
	addr     string
	shard    int    // -1 until assigned
	meshAddr string // the worker's mesh listener, from its hello
	ready    bool
	lastSeen time.Time
}

// New validates the configuration and prepares a coordinator. The graph is
// loaded and the algorithm instantiated once here, for the barrier and for
// result assembly; workers repeat both locally.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("cluster: Workers must be positive")
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.CheckpointEvery < 0 {
		return nil, errors.New("cluster: CheckpointEvery must be positive")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	if cfg.RejoinTimeout <= 0 {
		cfg.RejoinTimeout = DefaultRejoinTimeout
	}
	if cfg.Span == "" {
		cfg.Span = obs.NewSpanID()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	// The coordinator always loads the full graph (shard -1): it is the
	// reference for result assembly across every shard. It lives on the
	// heap, not in a mapping, because the Result that Serve returns aliases
	// it and outlives Close.
	gm, pmeta, err := LoadGraphShard(cfg.Graph, -1)
	if err != nil {
		return nil, err
	}
	g := gm.Graph
	if pmeta != nil && pmeta.Shards != cfg.Workers {
		return nil, fmt.Errorf("cluster: graph partitioned for %d shards but Workers=%d",
			pmeta.Shards, cfg.Workers)
	}
	prog, opts, err := algorithms.New(g, cfg.Algo, cfg.Params)
	if err != nil {
		return nil, err
	}
	opts.NumWorkers = cfg.Workers
	if pmeta != nil {
		// Adopt the embedded assignment so message addressing matches the
		// partition files; recomputing from a partial graph would diverge.
		opts.Partitioner = pmeta.Partitioner()
	}
	barrier, err := core.NewBarrier(opts, cfg.MaxRecoveries)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:     cfg,
		g:       g,
		barrier: barrier,
		naggs:   len(opts.Aggregators),
		states:  core.StateCodecOf(prog, opts),
		quit:    make(chan struct{}),
		stats:   Stats{State: stWaiting, Workers: cfg.Workers},
	}, nil
}

// Ready implements the readiness contract: nil once the cluster is at full
// quorum and progressing (or finished successfully), an error while
// assembling, recovering, or below quorum.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	switch {
	case s.State == stDone:
		return nil
	case s.Live < s.Workers:
		return fmt.Errorf("cluster: %d/%d workers live", s.Live, s.Workers)
	case s.State == stRecover:
		return fmt.Errorf("cluster: recovering (epoch %d)", s.Epoch)
	case s.State == stWaiting:
		return errors.New("cluster: awaiting worker registration")
	}
	return nil
}

// Stats returns a snapshot of the cluster state.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Report returns the run summary; complete once Serve has returned.
func (c *Coordinator) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.report
	r.Recoveries = append([]RecoveryInfo(nil), c.report.Recoveries...)
	return r
}

// Span returns the run-scoped span ID (minted in New if the config left it
// empty) — the string that links the coordinator's trace, every worker's
// trace, and the attribution rows.
func (c *Coordinator) Span() string { return c.cfg.Span }

// Attribution returns the closed supersteps so far, replays included, oldest
// first, bounded to the last attrRingCap: the cluster_step events of the
// coordinator's trace.
func (c *Coordinator) Attribution() []obs.ClusterStep {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.ClusterStep(nil), c.attr...)
}

// pushAttribution appends one closed superstep to the bounded history.
func (c *Coordinator) pushAttribution(a obs.ClusterStep) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attr = append(c.attr, a)
	if len(c.attr) > attrRingCap {
		c.attr = c.attr[len(c.attr)-attrRingCap:]
	}
}

// DebugHandler serves the cluster's observability state as JSON — the
// payload cmd/graphite-coordinator mounts at /debug/cluster and
// cmd/graphite-trace reconciles a merged cluster trace against.
func (c *Coordinator) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		body := struct {
			Span        string            `json:"span"`
			Stats       Stats             `json:"stats"`
			Report      Report            `json:"report"`
			Attribution []obs.ClusterStep `json:"attribution"`
		}{
			Span:        c.cfg.Span,
			Stats:       c.stats,
			Report:      c.report,
			Attribution: append([]obs.ClusterStep(nil), c.attr...),
		}
		c.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
}

// Close aborts the run; Serve returns promptly with an error.
func (c *Coordinator) Close() { c.qonce.Do(func() { close(c.quit) }) }

// deadWorker queues one detected worker loss for the drain loop; its
// connection is already closed and unregistered when queued.
type deadWorker struct {
	shard  int
	reason string
	silent time.Duration
}

// driver owns all cluster protocol state and makes every protocol decision;
// it reaches connections and the clock only through io.
type driver struct {
	c  *Coordinator
	io coordIO

	conns   map[int]*wconn
	byShard []*wconn

	epoch        int
	committedGen int // -1 until generation 0 is on disk everywhere
	superstep    int // superstep currently in flight (0 = none yet)
	started      time.Time

	// Per-superstep barrier tally. Worker reports are held per shard and
	// reach the barrier only when the superstep closes, so a mid-superstep
	// worker loss leaves the run's totals untouched. The relay
	// clocks accumulate the coordinator's own forwarding time and bytes per
	// destination shard.
	reports     []*stepDoneMsg // nil until the shard reports
	relayNS     []int64
	relayBytes  []int64
	stepStarted time.Time

	// meshing gates the start (or resume) of execution on every worker
	// having finished dialing its peer table; meshed tallies those
	// acknowledgements. graphBytes holds each shard's reported resident
	// graph size from its latest ready report.
	meshing    bool
	meshed     []bool
	graphBytes []int64

	// Worker losses detected mid-handling. Sends never recover inline:
	// failures queue here and drain between events, so a rollback broadcast
	// is never re-entered with a stale epoch.
	pendingDead []deadWorker

	// Recovery in progress: rewound is the barrier's verdict on its first
	// worker loss — the superstep that failed, where execution resumes —
	// in the epoch of the latest.
	recovering    bool
	detectedAt    time.Time
	detectLag     time.Duration
	rewound       obs.Recovery
	rejoinBy      time.Time
	restoredBytes int64

	// Result collection.
	blobs     [][]byte
	blobCount int

	state  string
	result *core.Result
}

func newDriver(c *Coordinator, io coordIO) *driver {
	n := c.cfg.Workers
	return &driver{
		c: c, io: io, conns: map[int]*wconn{}, byShard: make([]*wconn, n),
		committedGen: -1, state: stWaiting,
		reports: make([]*stepDoneMsg, n),
		relayNS: make([]int64, n), relayBytes: make([]int64, n),
		meshed: make([]bool, n), graphBytes: make([]int64, n), blobs: make([][]byte, n),
	}
}

// on is the driver's one entry point: it handles one event, then drains the
// worker losses that handling queued. An error ends the run, and so does
// d.result turning non-nil.
func (d *driver) on(ev event) error {
	var err error
	wc := d.conns[ev.conn] // nil: a connection already declared dead
	switch {
	case ev.kind == evConn:
		d.conns[ev.conn] = &wconn{id: ev.conn, addr: ev.addr, shard: -1, lastSeen: d.io.now()}
	case ev.kind == evTick:
		err = d.tick()
	case wc == nil:
	case ev.kind == evDead:
		d.markDead(wc, fmt.Sprintf("connection lost: %v", ev.err))
	case ev.kind == evFrame:
		wc.lastSeen = d.io.now()
		err = d.frame(wc, ev.ftype, ev.payload)
	}
	if err == nil {
		err = d.drainDead()
	}
	return err
}

// tick enforces leases, a connection that never said hello included, and
// the rejoin deadline, and refreshes the fleet health gauges.
func (d *driver) tick() error {
	now := d.io.now()
	for _, wc := range d.conns {
		switch silent := now.Sub(wc.lastSeen); {
		case silent <= d.c.cfg.Lease:
		case wc.shard < 0:
			d.forget(wc) // never said hello: it holds no shard, nothing to recover
		default:
			d.markDead(wc, fmt.Sprintf("lease expired (silent %v)", silent.Round(time.Millisecond)))
		}
	}
	d.refreshLeaseGauges(now)
	if d.recovering && !d.rejoinBy.IsZero() && now.After(d.rejoinBy) {
		return fmt.Errorf("cluster: no replacement worker within %v; abandoning run", d.c.cfg.RejoinTimeout)
	}
	return nil
}

// refreshLeaseGauges re-evaluates the fleet health gauges from the current
// silence profile. Called on every lease tick and at every superstep close,
// so a scrape sees fresh values even on runs shorter than a tick interval.
func (d *driver) refreshLeaseGauges(now time.Time) {
	var silences []time.Duration
	for _, wc := range d.conns {
		if wc.shard < 0 {
			continue
		}
		silences = append(silences, now.Sub(wc.lastSeen))
	}
	remMS, missed := LeaseHealth(silences, d.c.cfg.Lease)
	reg := d.c.cfg.Registry
	reg.Gauge(obs.GClusterLeaseRemainingMS).Set(remMS)
	reg.Gauge(obs.GClusterMissedHeartbeats).Set(missed)
}

// LeaseHealth distills a fleet silence profile into the two health gauges:
// the tightest remaining lease across workers in milliseconds (how close
// the quietest worker is to being declared dead; clamped at zero) and the
// worst missed-heartbeat count (whole heartbeat intervals — lease/4 — the
// quietest worker has gone without renewing; 0 while everyone is on
// schedule). An empty profile (no assigned workers) reports a full lease
// and zero missed beats.
func LeaseHealth(silences []time.Duration, lease time.Duration) (remainingMS, missed int64) {
	minRem := lease
	hb := lease / 4
	for _, s := range silences {
		if rem := lease - s; rem < minRem {
			minRem = rem
		}
		if hb > 0 {
			if m := int64(s / hb); m > missed {
				missed = m
			}
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	return minRem.Milliseconds(), missed
}

func (d *driver) frame(wc *wconn, ftype byte, payload []byte) error {
	if wc.shard < 0 && ftype != fHello {
		// A connection that holds no shard speaks for none: hello only.
		d.markDead(wc, fmt.Sprintf("frame type %d before an assignment", ftype))
		return nil
	}
	// A control frame that does not decode is a broken worker: dropped.
	var err error
	switch ftype {
	case fHello:
		var h helloMsg
		if err = parseJSON(payload, &h); err == nil {
			d.hello(wc, h)
		}
	case fHeartbeat: // lastSeen already refreshed
	case fReady:
		var r readyMsg
		if err = parseJSON(payload, &r); err == nil {
			d.readyFrame(wc, r)
		}
	case fStepDone:
		var sd stepDoneMsg
		if err = parseJSON(payload, &sd); err == nil {
			return d.stepDone(wc, sd)
		}
	case fMeshed:
		var mm meshedMsg
		if err = parseJSON(payload, &mm); err == nil {
			d.meshedFrame(wc, mm)
		}
	case fData:
		d.relay(wc, payload)
	case fResult:
		return d.resultFrame(wc, payload)
	case fError:
		var em errorMsg
		_ = parseJSON(payload, &em)
		return fmt.Errorf("cluster: worker (shard %d) failed: %s", em.Shard, em.Msg)
	default:
		err = fmt.Errorf("unexpected frame type %d", ftype)
	}
	if err != nil {
		d.markDead(wc, err.Error())
	}
	return nil
}

// markDead closes and unregisters a connection; if it held a shard, the
// loss is queued for drainDead. Safe to call twice for the same conn.
func (d *driver) markDead(wc *wconn, reason string) {
	if d.conns[wc.id] != wc {
		return
	}
	silent := d.io.now().Sub(wc.lastSeen)
	shard := wc.shard
	d.forget(wc)
	if shard >= 0 {
		d.pendingDead = append(d.pendingDead, deadWorker{shard: shard, reason: reason, silent: silent})
	}
}

// forget closes and unregisters a connection without recovery side effects.
func (d *driver) forget(wc *wconn) {
	d.io.close(wc.id)
	delete(d.conns, wc.id)
	if wc.shard >= 0 && d.byShard[wc.shard] == wc {
		d.byShard[wc.shard] = nil
	}
	d.publish()
}

// drainDead processes queued worker losses. Rollback broadcasts may queue
// further losses; the loop runs until the cluster is quiescent.
func (d *driver) drainDead() error {
	for len(d.pendingDead) > 0 {
		dw := d.pendingDead[0]
		d.pendingDead = d.pendingDead[1:]
		if err := d.workerLost(dw); err != nil {
			return err
		}
	}
	return nil
}

// hello assigns a shard. A rejoining worker that previously held a shard
// gets it back when free, so its checkpoint directory stays authoritative.
func (d *driver) hello(wc *wconn, h helloMsg) {
	if wc.shard >= 0 {
		d.markDead(wc, "duplicate hello")
		return
	}
	if h.MeshAddr == "" {
		d.markDead(wc, "malformed hello: no mesh address")
		return
	}
	shard := -1
	if h.PrevShard >= 0 && h.PrevShard < len(d.byShard) && d.byShard[h.PrevShard] == nil {
		shard = h.PrevShard
	} else {
		for s, owner := range d.byShard {
			if owner == nil {
				shard = s
				break
			}
		}
	}
	if shard < 0 {
		// Cluster is full; a spare worker is not an error, just unused.
		d.c.cfg.Logger.Info("cluster: rejecting spare worker, all shards assigned")
		d.forget(wc)
		return
	}
	wc.shard = shard
	wc.meshAddr = h.MeshAddr
	wc.ready = false
	d.byShard[shard] = wc
	as := assignMsg{
		Shard:           shard,
		Shards:          d.c.cfg.Workers,
		Epoch:           d.epoch,
		RestoreGen:      d.committedGen,
		Graph:           d.c.cfg.Graph,
		Algo:            d.c.cfg.Algo,
		Params:          d.c.cfg.Params,
		CheckpointEvery: d.c.cfg.CheckpointEvery,
		HeartbeatNS:     int64(d.c.cfg.Lease / 4),
		Span:            d.c.cfg.Span,
	}
	d.emit(obs.WorkerJoin{Shard: shard, Addr: wc.addr, Epoch: d.epoch, Rejoin: d.committedGen >= 0})
	d.c.cfg.Logger.Info("cluster: worker joined", "shard", shard, "epoch", d.epoch, "rejoin", d.committedGen >= 0)
	d.publish()
	d.send(wc, fAssign, as)
}

// readyFrame collects barrier-standing acknowledgements; when every shard
// is ready the mesh is (re)built, and then the run starts or resumes.
func (d *driver) readyFrame(wc *wconn, r readyMsg) {
	if r.Epoch != d.epoch {
		return // stale
	}
	wc.ready = true
	d.restoredBytes += r.RestoredBytes
	d.graphBytes[wc.shard] = r.GraphBytes
	for _, owner := range d.byShard {
		if owner == nil || !owner.ready {
			return
		}
	}
	// Full quorum at the current epoch: the fleet exchanges peer addresses
	// and dials the mesh; execution starts once every worker has tried.
	addrs := make([]string, len(d.byShard))
	for s, owner := range d.byShard {
		addrs[s] = owner.meshAddr
	}
	d.meshing = true
	clear(d.meshed)
	pm := peersMsg{Epoch: d.epoch, Addrs: addrs}
	for _, owner := range d.byShard {
		d.send(owner, fPeers, pm)
	}
}

// meshedFrame tallies one worker's mesh acknowledgement; the last one
// starts (or resumes) execution.
func (d *driver) meshedFrame(wc *wconn, mm meshedMsg) {
	if mm.Epoch != d.epoch || !d.meshing {
		return // stale
	}
	if mm.Shard != wc.shard {
		d.markDead(wc, fmt.Sprintf("bad mesh report for shard %d", mm.Shard))
		return
	}
	d.meshed[mm.Shard] = true
	for _, ok := range d.meshed {
		if !ok {
			return
		}
	}
	// Full quorum, meshed: the initial start out of stWaiting, or the
	// resumption of a recovery.
	d.meshing = false
	if d.state == stWaiting {
		d.started = d.io.now()
		d.emit(obs.RunStart{
			Vertices: d.c.g.NumVertices(), Workers: d.c.cfg.Workers,
			Checkpoints: true, Span: d.c.cfg.Span,
		})
		d.commit(0) // every worker has generation 0 on disk
		d.superstep = 1
		d.setState(stRunning)
		d.broadcastStep()
		return
	}
	if d.recovering {
		d.resume()
	}
}

// workerLost handles one queued worker death: epoch bump, rollback
// broadcast to survivors, and a recovery window for a replacement to claim
// the shard. The connection is already gone.
func (d *driver) workerLost(dw deadWorker) error {
	d.emit(obs.WorkerLost{Shard: dw.shard, Superstep: d.superstep, Reason: dw.reason})
	d.c.cfg.Logger.Warn("cluster: worker lost", "shard", dw.shard, "superstep", d.superstep, "reason", dw.reason)
	if d.state == stDone || d.state == stWaiting {
		// Nothing committed yet (or all done): await a fresh hello. A mesh
		// gate the lost worker already acknowledged re-runs with its
		// replacement, or the run would start without one.
		d.meshing = false
		return nil
	}
	// The barrier decides: within budget, it is back at the committed
	// generation — phase, merged aggregates and totals — so the replayed
	// supersteps count once and the master replays its decisions too.
	ev, err := d.c.barrier.Rewind(d.superstep)
	if err != nil {
		return fmt.Errorf("cluster: shard %d lost (%s): %w", dw.shard, dw.reason, err)
	}
	d.epoch++
	ev.Epoch, ev.Gen = d.epoch, d.committedGen
	if !d.recovering {
		d.detectedAt = d.io.now()
		d.detectLag = dw.silent
		d.rewound = ev
		d.restoredBytes = 0
	}
	d.rewound.Epoch = d.epoch
	d.recovering = true
	d.rejoinBy = d.io.now().Add(d.c.cfg.RejoinTimeout)
	d.emit(ev)
	d.meshing = false // the next full quorum re-runs the mesh exchange
	d.resetBarrierTally()
	d.blobCount = 0
	clear(d.blobs)
	d.setState(stRecover)
	d.c.cfg.Registry.Gauge(obs.GClusterEpoch).Set(int64(d.epoch))
	// Survivors roll back to the committed generation and report ready.
	rb := rollbackMsg{Epoch: d.epoch, Gen: d.committedGen}
	for _, owner := range d.byShard {
		if owner == nil {
			continue
		}
		owner.ready = false
		d.send(owner, fRollback, rb)
	}
	return nil
}

// resume closes a recovery: every shard is back at the committed
// generation's boundary, so execution restarts from its superstep.
func (d *driver) resume() {
	r := d.rewound
	mttr := d.io.now().Sub(d.detectedAt)
	info := RecoveryInfo{
		Recovery:      r,
		Detect:        d.detectLag,
		MTTR:          mttr,
		RestoredBytes: d.restoredBytes,
	}
	d.c.mu.Lock()
	d.c.report.Recoveries = append(d.c.report.Recoveries, info)
	d.c.mu.Unlock()
	d.recovering = false
	d.rejoinBy = time.Time{}
	d.superstep = r.ResumeAt
	reg := d.c.cfg.Registry
	reg.Counter(obs.CClusterRecoveries).Inc()
	reg.Counter(obs.CClusterReplayedSupersteps).Add(int64(r.Replayed))
	d.c.cfg.Logger.Info("cluster: recovered", "epoch", r.Epoch, "resume_at", r.ResumeAt,
		"gen", r.Gen, "mttr", mttr.Round(time.Millisecond), "replayed", r.Replayed)
	d.setState(stRunning)
	d.broadcastStep()
}

// broadcastStep starts the current superstep on every shard, with the phase
// the barrier opens it with — or collects the results when it does not.
func (d *driver) broadcastStep() {
	if !d.c.barrier.Open(d.superstep) {
		d.startCollect()
		return
	}
	d.resetBarrierTally()
	d.stepStarted = d.io.now()
	// The entering frontier is the previous barrier's active count; for the
	// very first superstep the coordinator has no worker reports yet, so it
	// opens with zero (workers know their post-Init frontiers, not us).
	d.emit(obs.SuperstepStart{Superstep: d.superstep, Active: d.c.barrier.Active()})
	k := d.c.cfg.CheckpointEvery
	st := stepMsg{Epoch: d.epoch, Superstep: d.superstep, Phase: d.c.barrier.Phase()}
	if d.superstep%k == 0 {
		st.Checkpoint = true
		st.Gen = d.superstep / k
	}
	for _, owner := range d.byShard {
		d.send(owner, fStep, st)
	}
	d.publish()
}

func (d *driver) resetBarrierTally() {
	clear(d.reports)
	clear(d.relayNS)
	clear(d.relayBytes)
}

// stepDone tallies one barrier report; the last one closes the superstep.
func (d *driver) stepDone(wc *wconn, sd stepDoneMsg) error {
	st := sd.Step
	switch {
	case st.Epoch != d.epoch:
		return nil // stale: in flight across a recovery
	case st.Shard != wc.shard || d.reports[st.Shard] != nil || len(sd.Aggs) != d.c.naggs || st.Superstep != sd.Superstep:
		d.markDead(wc, fmt.Sprintf("bad barrier report for shard %d", st.Shard))
		return nil
	case d.state != stRunning || sd.Superstep != d.superstep:
		// A worker reports each superstep of an epoch once, and a superstep
		// closes on every report: this is a second one, and the first may be
		// in the run's totals already.
		return fmt.Errorf("cluster: shard %d reported superstep %d of epoch %d twice", st.Shard, sd.Superstep, st.Epoch)
	}
	d.reports[st.Shard] = &sd
	if slices.Contains(d.reports, nil) {
		return nil
	}
	// Superstep closed: the barrier folds the held per-shard reports, shards
	// ascending (holding them until now is what keeps a rolled-back
	// superstep out of the run's totals); then the step is attributed and
	// traced.
	reps := make([]engine.StepReport, len(d.reports))
	acks := 0 // shards that saved this superstep's generation
	for s, rep := range d.reports {
		reps[s] = rep.StepReport
		if rep.CkptGen >= 0 {
			acks++
		}
	}
	quiesced := d.c.barrier.Close(reps)
	d.closeSuperstep()
	k := d.c.cfg.CheckpointEvery
	if d.superstep%k == 0 && acks == d.c.cfg.Workers {
		d.commit(d.superstep / k)
	}
	if quiesced {
		d.startCollect()
	} else {
		d.superstep++
		d.broadcastStep()
	}
	return nil
}

// commit makes gen, which every shard has on disk at the boundary before
// superstep d.superstep+1, the generation a rollback returns to; the barrier
// records its own state there.
func (d *driver) commit(gen int) {
	d.committedGen = gen
	d.emit(d.c.barrier.Commit(d.superstep + 1))
}

// closeSuperstep produces the observability output of the superstep the
// barrier closed: its ClusterStep — each shard's record with the relay clock
// added — as the trace event and the /debug/cluster row, its times in the
// barrier's totals and its superstep_end, and the fleet registry updates.
func (d *driver) closeSuperstep() {
	now := d.io.now()
	d.refreshLeaseGauges(now)
	shards := make([]obs.ShardStep, len(d.reports))
	for s, rep := range d.reports {
		// The relay volume is the coordinator's own forwarding tally toward
		// this shard: the worker's per-batch mesh fallbacks arrive here as
		// ordinary fData.
		shards[s] = rep.Step
		shards[s].RelayNS, shards[s].RelayBytes = d.relayNS[s], d.relayBytes[s]
	}
	cs := obs.NewClusterStep(d.c.cfg.Span, d.superstep, d.epoch, now.Sub(d.stepStarted).Nanoseconds(), shards)
	sum := cs.Total()
	maxCompute := shards[cs.SlowestShard].ComputeNS
	d.emit(d.c.barrier.SuperstepEnd(d.superstep, sum.Clocks()))
	d.emit(cs)
	d.c.pushAttribution(cs)
	reg := d.c.cfg.Registry
	reg.Histogram(obs.HClusterComputeNS).Observe(time.Duration(maxCompute))
	reg.Histogram(obs.HClusterWaitNS).Observe(time.Duration(sum.WaitNS / int64(len(cs.Shards))))
	reg.Gauge(obs.GClusterSkewMilli).Set(cs.SkewMilli)
	reg.Gauge(obs.GClusterSlowest).Set(int64(cs.SlowestShard))
	// All four counters are touched every superstep — Add(0) still registers
	// the family, so a scrape sees the relay pair on a healthy mesh too.
	reg.Counter(obs.CClusterRelayBytes).Add(sum.RelayBytes)
	reg.Counter(obs.CClusterRelayNS).Add(sum.RelayNS)
	reg.Counter(obs.CClusterDirectBytes).Add(sum.DirectBytes)
	reg.Counter(obs.CClusterDirectNS).Add(sum.PeerSendNS)
	for _, st := range cs.Shards {
		reg.Gauge(obs.WithLabels(obs.GClusterShardComputeNS, "shard", strconv.Itoa(st.Shard))).Set(st.ComputeNS)
	}
}

// relay forwards one data frame from wc's worker to its destination shard.
// Stale-epoch frames (in flight across a recovery) are dropped; a missing
// destination means that worker just died and a rollback is imminent, so the
// frame is moot either way. A worker ships only its own shard's batches: a
// frame naming another source is a broken worker's.
func (d *driver) relay(wc *wconn, payload []byte) {
	h, _, err := parseDataHeader(payload)
	if err != nil {
		return // corrupt header: originator will be caught elsewhere
	}
	if h.epoch != d.epoch || d.state != stRunning || h.superstep != d.superstep {
		return
	}
	if h.src != wc.shard {
		d.markDead(wc, fmt.Sprintf("data frame from shard %d names source %d", wc.shard, h.src))
		return
	}
	if h.dst < 0 || h.dst >= len(d.byShard) {
		return
	}
	// The relay clock charges the forwarding time (and volume) to the
	// destination shard: it is the receiver whose barrier wait this relay
	// hop sits inside.
	t0 := d.io.now()
	d.sendRaw(d.byShard[h.dst], fData, payload)
	d.relayNS[h.dst] += d.io.now().Sub(t0).Nanoseconds()
	d.relayBytes[h.dst] += int64(len(payload))
}

// startCollect asks every shard for its final states.
func (d *driver) startCollect() {
	d.setState(stCollect)
	d.blobCount = 0
	clear(d.blobs)
	for _, owner := range d.byShard {
		d.send(owner, fCollect, collectMsg{Epoch: d.epoch})
	}
}

// resultFrame collects one shard's state blob; the last one assembles the
// Result and ends the run.
func (d *driver) resultFrame(wc *wconn, payload []byte) error {
	epoch, shard, blob, err := parseResultHeader(payload)
	if err != nil {
		d.markDead(wc, err.Error())
		return nil
	}
	if epoch != d.epoch || d.state != stCollect || shard != wc.shard {
		return nil // stale
	}
	if d.blobs[shard] != nil {
		d.markDead(wc, fmt.Sprintf("duplicate result for shard %d", shard))
		return nil
	}
	d.blobs[shard] = blob
	d.blobCount++
	if d.blobCount < d.c.cfg.Workers {
		return nil
	}
	// The barrier's ledger holds the surviving executions only, as Run's
	// does; the Report counts every superstep driven, replays included.
	end := d.c.barrier.End(d.io.now().Sub(d.started))
	res, err := core.AssembleResult(d.c.g, d.c.states, d.blobs, &end)
	if err != nil {
		return err
	}
	for _, owner := range d.byShard {
		d.sendRaw(owner, fBye, nil)
	}
	d.emit(end)
	d.setState(stDone)
	d.c.mu.Lock()
	d.c.report.Supersteps = d.c.barrier.Executed()
	d.c.report.Makespan = time.Duration(end.MakespanNS)
	d.c.report.WorkerGraphBytes = append([]int64(nil), d.graphBytes...)
	d.c.mu.Unlock()
	d.result = res
	return nil
}

// send writes one JSON frame to a worker, sendRaw one already encoded; a
// failed write queues a worker loss. A nil owner (shard momentarily
// unassigned mid-recovery) is a no-op.
func (d *driver) send(wc *wconn, ftype byte, v any) {
	if p, err := json.Marshal(v); err == nil {
		d.sendRaw(wc, ftype, p)
	} else if wc != nil {
		d.markDead(wc, fmt.Sprintf("encode frame %d: %v", ftype, err))
	}
}

func (d *driver) sendRaw(wc *wconn, ftype byte, payload []byte) {
	if wc == nil {
		return
	}
	if err := d.io.send(wc.id, ftype, payload); err != nil {
		d.markDead(wc, fmt.Sprintf("write failed: %v", err))
	}
}

// publish refreshes the shared Stats snapshot and worker gauge.
func (d *driver) publish() {
	live := 0
	for _, owner := range d.byShard {
		if owner != nil {
			live++
		}
	}
	d.c.cfg.Registry.Gauge(obs.GClusterWorkers).Set(int64(live))
	d.c.mu.Lock()
	d.c.stats = Stats{
		State:      d.state,
		Live:       live,
		Workers:    d.c.cfg.Workers,
		Epoch:      d.epoch,
		Superstep:  d.superstep,
		Recoveries: len(d.c.report.Recoveries),
	}
	d.c.mu.Unlock()
}

func (d *driver) setState(s string) {
	d.state = s
	d.publish()
}

func (d *driver) emit(e obs.Event) {
	if d.c.cfg.Tracer != nil {
		d.c.cfg.Tracer.Emit(e)
	}
}
