package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
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
	// Graph is the shared graph spec (see LoadGraph).
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
	// worker lost, as engine.Config.MaxRecoveries does for Run: zero means
	// engine.DefaultMaxRecoveries, negative means unlimited.
	MaxRecoveries int
	// Span is the run-scoped span ID stamped on the coordinator's trace and
	// handed to every worker with its assignment, so all N+1 traces of the
	// run carry the same ID. Empty mints one in New (obs.NewSpanID).
	Span string
	// Registry receives the fleet gauges, counters and histograms; nil
	// creates a private one. Tracer, when set, receives the coordinator's
	// full run trace: the standard run/superstep lifecycle events plus the
	// cluster-specific ones (worker_join/worker_lost/cluster_recovery, and
	// per-superstep span/cluster_step attribution). Logger nil means
	// slog.Default.
	Registry *obs.Registry
	Tracer   obs.Tracer
	Logger   *slog.Logger
}

// ShardTiming is one shard's share of one distributed superstep, as the
// coordinator attributes it: the worker-reported compute / barrier-wait /
// deliver split, the coordinator's own time forwarding batches toward this
// shard (those whose mesh link was down), the shard's peer-send and
// peer-receive clocks, and how many payload bytes reached it over each hop.
type ShardTiming struct {
	Shard       int   `json:"shard"`
	ComputeNS   int64 `json:"compute_ns"`
	WaitNS      int64 `json:"wait_ns"`
	DeliverNS   int64 `json:"deliver_ns"`
	RelayNS     int64 `json:"relay_ns"`
	PeerSendNS  int64 `json:"peer_send_ns,omitempty"`
	PeerRecvNS  int64 `json:"peer_recv_ns,omitempty"`
	DirectBytes int64 `json:"direct_bytes,omitempty"`
	RelayBytes  int64 `json:"relay_bytes,omitempty"`
}

// StepAttribution is the coordinator's straggler verdict for one superstep:
// the wall time from broadcast to last barrier report, the slowest shard by
// compute time, the compute skew (max/mean in thousandths; 1000 = perfectly
// balanced), and the per-shard split. Served as JSON by DebugHandler and
// mirrored into the trace as a cluster_step event.
type StepAttribution struct {
	Superstep    int           `json:"superstep"`
	Epoch        int           `json:"epoch"`
	WallNS       int64         `json:"wall_ns"`
	SlowestShard int           `json:"slowest_shard"`
	SkewMilli    int64         `json:"skew_milli"`
	Shards       []ShardTiming `json:"shards"`
}

// attrRingCap bounds the in-memory attribution history served by
// /debug/cluster; older supersteps fall off the front.
const attrRingCap = 512

// RecoveryInfo describes one completed rollback-and-replay cycle.
type RecoveryInfo struct {
	Epoch         int           `json:"epoch"`     // epoch recovered into
	Failed        int           `json:"failed"`    // superstep in flight at detection
	ResumeAt      int           `json:"resume_at"` // superstep execution resumed from
	Gen           int           `json:"gen"`       // committed generation restored
	Detect        time.Duration `json:"detect_ns"` // silence observed before declaring death
	MTTR          time.Duration `json:"mttr_ns"`   // detection → superstep broadcast resumed
	Replayed      int           `json:"replayed_supersteps"`
	RestoredBytes int64         `json:"restored_bytes"` // checkpoint bytes reloaded, all shards
}

// Report summarizes a finished (or aborted) cluster run. Its counts are the
// barrier's, set when the run finishes; a recovery is listed as it closes.
type Report struct {
	Supersteps  int            `json:"supersteps"`  // executed, including replays
	Checkpoints int            `json:"checkpoints"` // generations committed, generation 0 included
	Recoveries  []RecoveryInfo `json:"recoveries,omitempty"`
	Makespan    time.Duration  `json:"makespan_ns"`
	// WorkerGraphBytes is each shard's reported resident graph size (mapped
	// snapshot bytes, or in-memory footprint for built graphs) — the
	// partitioning win: under shard: specs these shrink as shards grow.
	WorkerGraphBytes []int64         `json:"worker_graph_bytes,omitempty"`
	Metrics          *engine.Metrics `json:"-"`
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

	events chan event
	quit   chan struct{}
	qonce  sync.Once

	mu     sync.Mutex
	stats  Stats
	report Report
	attr   []StepAttribution
}

// event kinds flowing into the driver goroutine, which owns all protocol
// state and performs every write — per-connection write order is therefore
// the driver's processing order, so a worker always sees fStep for a
// superstep before any data of that superstep the coordinator forwards.
type event struct {
	kind    int // evConn | evFrame | evDead
	conn    net.Conn
	wc      *wconn
	ftype   byte
	payload []byte
	err     error
}

const (
	evConn = iota
	evFrame
	evDead
)

// wconn is the driver's view of one worker connection.
type wconn struct {
	id       int
	conn     net.Conn
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
	// reference for result assembly across every shard.
	gm, pmeta, err := LoadGraphShard(cfg.Graph, -1)
	if err != nil {
		return nil, err
	}
	g := gm.Graph // the mapping stays open for the coordinator's lifetime
	if pmeta != nil && pmeta.Shards != cfg.Workers {
		return nil, fmt.Errorf("cluster: graph partitioned for %d shards but Workers=%d",
			pmeta.Shards, cfg.Workers)
	}
	prog, opts, err := algorithms.New(g, cfg.Algo, cfg.Params)
	if err != nil {
		return nil, err
	}
	opts.NumWorkers, opts.MaxRecoveries = cfg.Workers, cfg.MaxRecoveries
	if pmeta != nil {
		// Adopt the embedded assignment so message addressing matches the
		// partition files; recomputing from a partial graph would diverge.
		opts.Partitioner = pmeta.Partitioner()
	}
	barrier, err := core.NewBarrier(opts)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:     cfg,
		g:       g,
		barrier: barrier,
		naggs:   len(opts.Aggregators),
		states:  core.StateCodecOf(prog, opts),
		events:  make(chan event, 64),
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

// Attribution returns the per-superstep straggler attribution collected so
// far, oldest first, bounded to the last attrRingCap supersteps.
func (c *Coordinator) Attribution() []StepAttribution {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StepAttribution(nil), c.attr...)
}

// pushAttribution appends one closed superstep to the bounded history.
func (c *Coordinator) pushAttribution(a StepAttribution) {
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
			Attribution []StepAttribution `json:"attribution"`
		}{
			Span:        c.cfg.Span,
			Stats:       c.stats,
			Report:      c.report,
			Attribution: append([]StepAttribution(nil), c.attr...),
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

// Serve accepts workers on ln and drives the run to completion, returning
// the assembled result. It blocks; ln is closed on return.
func (c *Coordinator) Serve(ln net.Listener) (*core.Result, error) {
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed by driver exit or Close
			}
			select {
			case c.events <- event{kind: evConn, conn: conn}:
			case <-c.quit:
				conn.Close()
				return
			}
		}
	}()
	d := &driver{c: c, byShard: make([]*wconn, c.cfg.Workers), conns: map[int]*wconn{}}
	res, err := d.run()
	// Unblock the accept loop if the run ended on its own.
	c.Close()
	return res, err
}

// deadWorker queues one detected worker loss for the drain loop; its
// connection is already closed and unregistered when queued.
type deadWorker struct {
	shard  int
	reason string
	silent time.Duration
}

// driver is the single goroutine owning all cluster protocol state.
type driver struct {
	c *Coordinator

	conns   map[int]*wconn
	byShard []*wconn
	nextID  int

	epoch        int
	committedGen int // -1 until generation 0 is on disk everywhere
	superstep    int // superstep currently in flight (0 = none yet)
	started      time.Time

	// Per-superstep barrier tally. Worker reports are held per shard and
	// reach the barrier only when the superstep closes, so a mid-superstep
	// worker loss leaves the run's totals untouched. The relay
	// clocks accumulate the coordinator's own forwarding time and bytes per
	// destination shard.
	doneFrom    []bool
	doneCount   int
	ckptAcks    int
	reports     []stepDoneMsg
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
	// worker loss — the superstep that failed, where execution resumes.
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

func (d *driver) run() (*core.Result, error) {
	c := d.c
	d.committedGen = -1
	d.state = stWaiting
	d.doneFrom = make([]bool, c.cfg.Workers)
	d.reports = make([]stepDoneMsg, c.cfg.Workers)
	d.relayNS = make([]int64, c.cfg.Workers)
	d.relayBytes = make([]int64, c.cfg.Workers)
	d.meshed = make([]bool, c.cfg.Workers)
	d.graphBytes = make([]int64, c.cfg.Workers)
	d.blobs = make([][]byte, c.cfg.Workers)
	ticker := time.NewTicker(c.cfg.Lease / 2)
	defer ticker.Stop()
	defer func() {
		for _, wc := range d.conns {
			wc.conn.Close()
		}
	}()
	for {
		var err error
		select {
		case <-c.quit:
			return nil, errors.New("cluster: coordinator closed")
		case now := <-ticker.C:
			err = d.tick(now)
		case ev := <-c.events:
			err = d.handle(ev)
		}
		if err == nil {
			err = d.drainDead()
		}
		if err != nil {
			return nil, err
		}
		if d.result != nil {
			return d.result, nil
		}
	}
}

// tick enforces leases and the rejoin deadline, and refreshes the fleet
// health gauges from the current silence profile.
func (d *driver) tick(now time.Time) error {
	lease := d.c.cfg.Lease
	for _, wc := range d.conns {
		if wc.shard < 0 {
			continue
		}
		if now.Sub(wc.lastSeen) > lease {
			d.markDead(wc, fmt.Sprintf("lease expired (silent %v)", now.Sub(wc.lastSeen).Round(time.Millisecond)))
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

func (d *driver) handle(ev event) error {
	switch ev.kind {
	case evConn:
		wc := &wconn{id: d.nextID, conn: ev.conn, shard: -1, lastSeen: time.Now()}
		d.nextID++
		d.conns[wc.id] = wc
		go d.readLoop(wc)
		return nil
	case evDead:
		d.markDead(ev.wc, fmt.Sprintf("connection lost: %v", ev.err))
		return nil
	case evFrame:
		wc := ev.wc
		if d.conns[wc.id] != wc {
			return nil // frame from a connection already declared dead
		}
		wc.lastSeen = time.Now()
		return d.frame(wc, ev.ftype, ev.payload)
	}
	return nil
}

// readLoop turns one connection into events; it owns no protocol state.
func (d *driver) readLoop(wc *wconn) {
	for {
		ftype, payload, err := readConnFrame(wc.conn)
		var ev event
		if err != nil {
			ev = event{kind: evDead, wc: wc, err: err}
		} else {
			ev = event{kind: evFrame, wc: wc, ftype: ftype, payload: payload}
		}
		select {
		case d.c.events <- ev:
		case <-d.c.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

func (d *driver) frame(wc *wconn, ftype byte, payload []byte) error {
	switch ftype {
	case fHello:
		var h helloMsg
		if err := parseJSON(payload, &h); err != nil {
			d.markDead(wc, err.Error())
			return nil
		}
		d.hello(wc, h)
		return nil
	case fHeartbeat:
		return nil // lastSeen already refreshed
	case fReady:
		var r readyMsg
		if err := parseJSON(payload, &r); err != nil {
			d.markDead(wc, err.Error())
			return nil
		}
		d.readyFrame(wc, r)
		return nil
	case fStepDone:
		var sd stepDoneMsg
		if err := parseJSON(payload, &sd); err != nil {
			d.markDead(wc, err.Error())
			return nil
		}
		d.stepDone(wc, sd)
		return nil
	case fMeshed:
		var mm meshedMsg
		if err := parseJSON(payload, &mm); err != nil {
			d.markDead(wc, err.Error())
			return nil
		}
		d.meshedFrame(wc, mm)
		return nil
	case fData:
		d.relay(payload)
		return nil
	case fResult:
		return d.resultFrame(wc, payload)
	case fError:
		var em errorMsg
		_ = parseJSON(payload, &em)
		return fmt.Errorf("cluster: worker (shard %d) failed: %s", em.Shard, em.Msg)
	}
	d.markDead(wc, fmt.Sprintf("unexpected frame type %d", ftype))
	return nil
}

// markDead closes and unregisters a connection; if it held a shard, the
// loss is queued for drainDead. Safe to call twice for the same conn.
func (d *driver) markDead(wc *wconn, reason string) {
	if d.conns[wc.id] != wc {
		return
	}
	silent := time.Since(wc.lastSeen)
	shard := wc.shard
	d.forget(wc)
	if shard >= 0 {
		d.pendingDead = append(d.pendingDead, deadWorker{shard: shard, reason: reason, silent: silent})
	}
}

// forget closes and unregisters a connection without recovery side effects.
func (d *driver) forget(wc *wconn) {
	wc.conn.Close()
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
	d.emit(obs.WorkerJoin{Shard: shard, Addr: wc.conn.RemoteAddr().String(), Epoch: d.epoch, Rejoin: d.committedGen >= 0})
	d.c.cfg.Logger.Info("cluster: worker joined", "shard", shard, "epoch", d.epoch, "rejoin", d.committedGen >= 0)
	d.publish()
	d.send(wc, fAssign, as)
}

// readyFrame collects barrier-standing acknowledgements; when every shard
// is ready the mesh is (re)built, and then the run starts or resumes.
func (d *driver) readyFrame(wc *wconn, r readyMsg) {
	if r.Epoch != d.epoch || wc.shard < 0 {
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
	if mm.Epoch != d.epoch || wc.shard < 0 || !d.meshing {
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
	d.meshing = false
	d.startOrResume()
}

// startOrResume begins execution at full quorum: the initial start out of
// stWaiting, or the resumption of a recovery.
func (d *driver) startOrResume() {
	if d.state == stWaiting {
		d.started = time.Now()
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
		return nil // nothing committed yet (or all done); await a fresh hello
	}
	// The barrier decides: within budget, it is back at the committed
	// generation — phase, merged aggregates and totals — so the replayed
	// supersteps count once and the master replays its decisions too.
	ev, err := d.c.barrier.Rewind(d.superstep)
	if err != nil {
		return fmt.Errorf("cluster: shard %d lost (%s): %w", dw.shard, dw.reason, err)
	}
	ev.Reason = "worker_lost"
	d.emit(ev)
	if !d.recovering {
		d.detectedAt = time.Now()
		d.detectLag = dw.silent
		d.rewound = ev
		d.restoredBytes = 0
	}
	d.recovering = true
	d.rejoinBy = time.Now().Add(d.c.cfg.RejoinTimeout)
	d.epoch++
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
	mttr := time.Since(d.detectedAt)
	info := RecoveryInfo{
		Epoch:         d.epoch,
		Failed:        r.Failed,
		ResumeAt:      r.ResumeAt,
		Gen:           d.committedGen,
		Detect:        d.detectLag,
		MTTR:          mttr,
		Replayed:      r.Replayed,
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
	d.emit(obs.ClusterRecovery{
		Epoch: d.epoch, Failed: r.Failed, ResumeAt: r.ResumeAt,
		Gen: d.committedGen, DetectNS: int64(d.detectLag), MTTRNS: int64(mttr),
		RestoredBytes: d.restoredBytes,
	})
	d.c.cfg.Logger.Info("cluster: recovered", "epoch", d.epoch, "resume_at", r.ResumeAt,
		"gen", d.committedGen, "mttr", mttr.Round(time.Millisecond), "replayed", r.Replayed)
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
	d.stepStarted = time.Now()
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
	clear(d.doneFrom)
	clear(d.reports)
	clear(d.relayNS)
	clear(d.relayBytes)
	d.doneCount = 0
	d.ckptAcks = 0
}

// stepDone tallies one barrier report; the last one closes the superstep.
func (d *driver) stepDone(wc *wconn, sd stepDoneMsg) {
	if sd.Epoch != d.epoch || d.state != stRunning || sd.Superstep != d.superstep {
		return // stale
	}
	if sd.Shard != wc.shard || d.doneFrom[sd.Shard] || len(sd.Aggs) != d.c.naggs {
		d.markDead(wc, fmt.Sprintf("bad barrier report for shard %d", sd.Shard))
		return
	}
	d.doneFrom[sd.Shard] = true
	d.doneCount++
	d.reports[sd.Shard] = sd
	if sd.CkptGen >= 0 {
		d.ckptAcks++
	}
	if d.doneCount < d.c.cfg.Workers {
		return
	}
	// Superstep closed: the barrier folds the held per-shard reports, shards
	// ascending (holding them until now is what keeps a rolled-back
	// superstep out of the run's totals); then the step is attributed and
	// traced.
	reps := make([]engine.StepReport, len(d.reports))
	for s := range d.reports {
		reps[s] = d.reports[s].StepReport
	}
	quiesced := d.c.barrier.Close(reps)
	d.closeSuperstep()
	k := d.c.cfg.CheckpointEvery
	if d.superstep%k == 0 && d.ckptAcks == d.c.cfg.Workers {
		d.commit(d.superstep / k)
	}
	if quiesced {
		d.startCollect()
		return
	}
	d.superstep++
	d.broadcastStep()
}

// commit makes gen, which every shard has on disk at the boundary before
// superstep d.superstep+1, the generation a rollback returns to; the barrier
// records its own state there.
func (d *driver) commit(gen int) {
	d.committedGen = gen
	d.emit(d.c.barrier.Commit(d.superstep + 1))
}

// closeSuperstep produces the observability output of the superstep the
// barrier closed: per-shard phase spans, its times in the barrier's totals
// and its superstep_end, the cluster_step straggler verdict, the
// /debug/cluster attribution row, and the fleet registry updates.
func (d *driver) closeSuperstep() {
	d.refreshLeaseGauges(time.Now())
	wallNS := time.Since(d.stepStarted).Nanoseconds()
	var sumCompute, sumWait, sumDeliver, sumRelayNS, sumRelayBytes int64
	var sumPeerSend, sumPeerRecv, sumDirectBytes int64
	maxCompute, slowest := int64(-1), 0
	shards := make([]ShardTiming, d.c.cfg.Workers)
	for s := range d.reports {
		rep := &d.reports[s]
		// RelayBytes is the coordinator's own forwarding tally toward this
		// shard — it already includes any per-batch mesh fallbacks, which
		// arrive here as ordinary fData, so the worker-reported fallback
		// volume is not added again.
		shards[s] = ShardTiming{
			Shard: s, ComputeNS: rep.ComputeNS, WaitNS: rep.WaitNS,
			DeliverNS: rep.DeliverNS, RelayNS: d.relayNS[s],
			PeerSendNS: rep.PeerSendNS, PeerRecvNS: rep.PeerRecvNS,
			DirectBytes: rep.DirectBytes, RelayBytes: d.relayBytes[s],
		}
		sumCompute += rep.ComputeNS
		sumWait += rep.WaitNS
		sumDeliver += rep.DeliverNS
		sumRelayNS += d.relayNS[s]
		sumRelayBytes += d.relayBytes[s]
		sumPeerSend += rep.PeerSendNS
		sumPeerRecv += rep.PeerRecvNS
		sumDirectBytes += rep.DirectBytes
		if rep.ComputeNS > maxCompute {
			maxCompute, slowest = rep.ComputeNS, s
		}
	}
	skewMilli := int64(1000)
	if mean := sumCompute / int64(len(shards)); mean > 0 {
		skewMilli = maxCompute * 1000 / mean
	}

	span := d.c.cfg.Span
	for _, st := range shards {
		d.emit(obs.PhaseSpan{Span: span, Superstep: d.superstep, Shard: st.Shard, Phase: "compute", NS: st.ComputeNS})
		d.emit(obs.PhaseSpan{Span: span, Superstep: d.superstep, Shard: st.Shard, Phase: "barrier_wait", NS: st.WaitNS})
		// The relay span is zero when everything went peer-to-peer:
		// consumers key on its presence per shard.
		d.emit(obs.PhaseSpan{Span: span, Superstep: d.superstep, Shard: st.Shard, Phase: "relay", NS: st.RelayNS})
		d.emit(obs.PhaseSpan{Span: span, Superstep: d.superstep, Shard: st.Shard, Phase: "peer_send", NS: st.PeerSendNS})
		d.emit(obs.PhaseSpan{Span: span, Superstep: d.superstep, Shard: st.Shard, Phase: "peer_recv", NS: st.PeerRecvNS})
	}
	d.emit(d.c.barrier.SuperstepEnd(d.superstep, time.Duration(sumCompute),
		time.Duration(sumWait+sumRelayNS+sumPeerSend), time.Duration(sumDeliver)))
	d.emit(obs.ClusterStep{
		Span: span, Superstep: d.superstep, Epoch: d.epoch, WallNS: wallNS,
		SlowestShard: slowest, SkewMilli: skewMilli,
		ComputeNS: sumCompute, WaitNS: sumWait, RelayNS: sumRelayNS,
	})
	d.c.pushAttribution(StepAttribution{
		Superstep: d.superstep, Epoch: d.epoch, WallNS: wallNS,
		SlowestShard: slowest, SkewMilli: skewMilli, Shards: shards,
	})
	reg := d.c.cfg.Registry
	reg.Histogram(obs.HClusterComputeNS).Observe(time.Duration(maxCompute))
	reg.Histogram(obs.HClusterWaitNS).Observe(time.Duration(sumWait / int64(len(shards))))
	reg.Gauge(obs.GClusterSkewMilli).Set(skewMilli)
	reg.Gauge(obs.GClusterSlowest).Set(int64(slowest))
	// All four counters are touched every superstep — Add(0) still registers
	// the family, so a scrape sees the relay pair on a healthy mesh too.
	reg.Counter(obs.CClusterRelayBytes).Add(sumRelayBytes)
	reg.Counter(obs.CClusterRelayNS).Add(sumRelayNS)
	reg.Counter(obs.CClusterDirectBytes).Add(sumDirectBytes)
	reg.Counter(obs.CClusterDirectNS).Add(sumPeerSend)
	for _, st := range shards {
		reg.Gauge(obs.WithLabels(obs.GClusterShardComputeNS, "shard", strconv.Itoa(st.Shard))).Set(st.ComputeNS)
	}
}

// relay forwards one data frame to its destination shard. Stale-epoch
// frames (in flight across a recovery) are dropped; a missing destination
// means that worker just died and a rollback is imminent, so the frame is
// moot either way.
func (d *driver) relay(payload []byte) {
	h, _, err := parseDataHeader(payload)
	if err != nil {
		return // corrupt header: originator will be caught elsewhere
	}
	if h.epoch != d.epoch || d.state != stRunning || h.superstep != d.superstep {
		return
	}
	if h.dst < 0 || h.dst >= len(d.byShard) {
		return
	}
	// The relay clock charges the forwarding time (and volume) to the
	// destination shard: it is the receiver whose barrier wait this relay
	// hop sits inside.
	t0 := time.Now()
	d.sendRaw(d.byShard[h.dst], fData, payload)
	d.relayNS[h.dst] += time.Since(t0).Nanoseconds()
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
	m, end := d.c.barrier.End(time.Since(d.started))
	res, err := core.AssembleResult(d.c.g, d.c.states, d.blobs, m)
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
	d.c.report.Checkpoints = m.Checkpoints
	d.c.report.Makespan = m.Makespan
	d.c.report.WorkerGraphBytes = append([]int64(nil), d.graphBytes...)
	d.c.report.Metrics = m
	d.c.mu.Unlock()
	d.result = res
	return nil
}

// send writes one JSON frame to a worker; a write failure queues a worker
// loss. nil owner (shard momentarily unassigned mid-recovery) is a no-op.
func (d *driver) send(wc *wconn, ftype byte, v any) {
	if wc == nil {
		return
	}
	d.writeDeadline(wc)
	if err := sendJSON(wc.conn, ftype, v); err != nil {
		d.markDead(wc, fmt.Sprintf("write failed: %v", err))
	}
}

func (d *driver) sendRaw(wc *wconn, ftype byte, payload []byte) {
	if wc == nil {
		return
	}
	d.writeDeadline(wc)
	if err := writeConnFrame(wc.conn, ftype, payload); err != nil {
		d.markDead(wc, fmt.Sprintf("write failed: %v", err))
	}
}

// writeDeadline bounds how long a hung worker can stall the driver: a
// worker that stops reading hits the lease-sized deadline and is declared
// dead instead of wedging the whole cluster.
func (d *driver) writeDeadline(wc *wconn) {
	_ = wc.conn.SetWriteDeadline(time.Now().Add(d.c.cfg.Lease))
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
