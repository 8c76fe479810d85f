package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/obs"
)

// Worker dial defaults: a replacement worker may start before the
// coordinator notices the loss, so the dial loop is patient. Mesh dials are
// far less so — every peer's listener is up before the coordinator ever
// broadcasts the address table, so a peer that won't answer after a few
// tries is genuinely unreachable and its batches go through the coordinator.
const (
	DefaultDialAttempts = 40
	DefaultDialBackoff  = 25 * time.Millisecond
	meshDialAttempts    = 5
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Dir is the durable checkpoint directory. A respawned worker pointed
	// at its old directory offers its previous shard back to the
	// coordinator and can restore that shard's committed generations; a
	// replacement for a lost worker MUST reuse the lost worker's directory
	// (shared or persistent storage), since checkpoints live with the shard.
	Dir string
	// DialAttempts / DialBackoff shape the jittered connect-retry loop.
	// Zero means the defaults above.
	DialAttempts int
	DialBackoff  time.Duration
	// Crash plants a kill point for the chaos driver (see CrashEnv); the
	// zero value never fires.
	Crash CrashPlan
	// HangAtSuperstep, when > 0, makes the worker go silent (no heartbeats,
	// no progress) upon receiving that superstep — the in-process stand-in
	// for a wedged process, driving the coordinator's lease-expiry path.
	HangAtSuperstep int
	// KeepCheckpoints bounds on-disk generations; zero means
	// engine.DefaultKeepGenerations.
	KeepCheckpoints int
	// MeshListenAddr is the address the mesh endpoint listens on; empty
	// means an ephemeral loopback port. Multi-host deployments set this to
	// an externally reachable "<host>:0" (the advertised address is the
	// listener's).
	MeshListenAddr string
	// Registry, when set, receives the worker's engine.* metric families
	// (the shard is built with it) — the series a worker-side /metrics
	// endpoint exposes. Nil disables worker-local metrics.
	Registry *obs.Registry
	// Tracer, when set, receives the worker's run trace: a run_start carrying
	// the coordinator-minted span and one shard_step per completed superstep,
	// timed by the worker's own clock. Nil disables tracing.
	Tracer obs.Tracer
	// Logger nil means slog.Default.
	Logger *slog.Logger
}

// stepRun is the in-flight superstep: batches arrive interleaved with
// nothing else on the wire, but counting them explicitly keeps the worker a
// pure frame-at-a-time state machine.
type stepRun struct {
	step    int
	ckpt    bool
	gen     int
	batches [][]byte
	got     int
	need    int

	// Phase clock: computeNS covers compute + outbound + shipping the
	// batches; shipped marks the start of the barrier wait (idle until the
	// last peer batch lands).
	computeNS int64
	shipped   time.Time

	// Which hop this superstep's outbound batches took, plus the arrival
	// clock of inbound mesh batches (peer_recv ends when the last direct
	// batch lands).
	peerSendNS   int64
	directBytes  int64
	relayedBytes int64
	lastDirect   time.Time
}

// pendKey indexes an early mesh batch: the peer computed a superstep this
// worker has not opened yet (its fStep is still in flight on the
// coordinator stream, which has no ordering relative to the mesh).
type pendKey struct {
	step int
	src  int
}

// wrk is one worker process's run state.
type wrk struct {
	cfg   WorkerConfig
	ctx   context.Context
	conn  net.Conn
	wmu   sync.Mutex // serializes frame writes (main loop vs heartbeat)
	log   *slog.Logger
	sh    *core.Shard
	store *engine.CheckpointStore

	self       int
	shards     int
	epoch      int
	span       string
	graphBytes int64 // resident graph footprint, reported on every ready
	cur        *stepRun

	mesh    *mesh
	pending map[pendKey][]byte // early mesh batches for unopened supersteps

	hbStop chan struct{}
	hbOnce sync.Once
}

// RunWorker connects to the coordinator and executes the assigned shard
// until the run completes (nil), the context is canceled, or the
// connection fails. A worker process is stateless beyond its checkpoint
// directory: every decision is the coordinator's.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Addr == "" || cfg.Dir == "" {
		return errors.New("cluster: worker requires Addr and Dir")
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = DefaultDialAttempts
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = DefaultDialBackoff
	}
	if cfg.KeepCheckpoints <= 0 {
		cfg.KeepCheckpoints = engine.DefaultKeepGenerations
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.MeshListenAddr == "" {
		cfg.MeshListenAddr = "127.0.0.1:0"
	}
	// The mesh listener comes up before the hello so the advertised address
	// is live the moment any peer learns it.
	me, err := newMesh(cfg.MeshListenAddr, cfg.Logger)
	if err != nil {
		return err
	}
	defer me.close()
	conn, err := dialCoordinator(ctx, cfg)
	if err != nil {
		return err
	}
	defer conn.Close()
	w := &wrk{
		cfg: cfg, ctx: ctx, conn: conn, log: cfg.Logger, mesh: me,
		pending: map[pendKey][]byte{}, hbStop: make(chan struct{}),
	}
	defer w.stopHeartbeat()
	defer func() {
		// loop is the only goroutine that steps the shard, and it has returned.
		if w.sh != nil {
			w.sh.Close()
		}
	}()
	// A canceled context unblocks the frame read by closing the conn.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	if err := w.sendJSON(fHello, helloMsg{PrevShard: readShardMarker(cfg.Dir), MeshAddr: me.addr()}); err != nil {
		return err
	}
	return w.loop()
}

// dialCoordinator retries with capped, jittered exponential backoff — the
// same discipline as the engine transport's dial path.
func dialCoordinator(ctx context.Context, cfg WorkerConfig) (net.Conn, error) {
	var d net.Dialer
	var lastErr error
	for i := 1; i <= cfg.DialAttempts; i++ {
		conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		select {
		case <-time.After(engine.RetryDelay(cfg.DialBackoff, i, 32*cfg.DialBackoff)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("cluster: dial coordinator %s: %w", cfg.Addr, lastErr)
}

// loop is the worker's single-threaded state machine. Frames from the
// coordinator stream and the mesh are funneled through channels so one
// goroutine makes every state transition; the select order between the two
// sources is irrelevant because batch delivery is gated on completeness and
// replayed in a canonical order, never in arrival order.
func (w *wrk) loop() error {
	type inFrame struct {
		ftype   byte
		payload []byte
		err     error
	}
	coordIn := make(chan inFrame, 8)
	go func() {
		for {
			ftype, payload, err := readConnFrame(w.conn)
			select {
			case coordIn <- inFrame{ftype, payload, err}:
			case <-w.ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()
	for {
		select {
		case f := <-coordIn:
			if f.err != nil {
				if w.ctx.Err() != nil {
					return w.ctx.Err()
				}
				if errors.Is(f.err, io.EOF) {
					return errors.New("cluster: coordinator closed the connection")
				}
				return fmt.Errorf("cluster: read frame: %w", f.err)
			}
			var err error
			switch f.ftype {
			case fAssign:
				err = w.handleAssign(f.payload)
			case fStep:
				err = w.handleStep(f.payload)
			case fData:
				err = w.handleData(f.payload)
			case fPeers:
				err = w.handlePeers(f.payload)
			case fRollback:
				err = w.handleRollback(f.payload)
			case fCollect:
				err = w.handleCollect(f.payload)
			case fBye:
				return nil
			default:
				err = fmt.Errorf("cluster: unexpected frame type %d from coordinator", f.ftype)
			}
			if err != nil {
				return err
			}
		case p := <-w.mesh.in:
			if err := w.handleMeshData(p); err != nil {
				return err
			}
		case <-w.ctx.Done():
			return w.ctx.Err()
		}
	}
}

// handlePeers (re)builds the outbound mesh for an epoch and tells the
// coordinator the dial attempts are over. Dialing happens inline — the
// worker has nothing else to do between ready and the first step, and the
// heartbeat goroutine keeps the lease alive — and a peer that did not
// answer is handleStep's business, one batch at a time.
func (w *wrk) handlePeers(payload []byte) error {
	var pm peersMsg
	if err := parseJSON(payload, &pm); err != nil {
		return err
	}
	if pm.Epoch != w.epoch {
		return nil // stale
	}
	w.mesh.self = w.self
	if err := w.mesh.dialPeers(w.ctx, pm.Epoch, pm.Addrs, meshDialAttempts, w.cfg.DialBackoff); err != nil {
		return err
	}
	return w.sendJSON(fMeshed, meshedMsg{Epoch: pm.Epoch, Shard: w.self})
}

// fail reports a fatal worker-side error to the coordinator (best effort)
// and returns it. Deterministic failures must abort the run, not trigger
// recovery: a replay would hit them again.
func (w *wrk) fail(err error) error {
	_ = w.sendJSON(fError, errorMsg{Shard: w.self, Msg: err.Error()})
	return err
}

func (w *wrk) handleAssign(payload []byte) error {
	var as assignMsg
	if err := parseJSON(payload, &as); err != nil {
		return err
	}
	if w.sh != nil {
		return w.fail(errors.New("cluster: duplicate assignment"))
	}
	// Heartbeat from the moment the assignment is understood: graph load,
	// engine build and the generation-0 checkpoint below can take longer
	// than the lease on large graphs, and a silent worker mid-setup would be
	// declared dead before it ever got to ready.
	w.startHeartbeat(time.Duration(as.HeartbeatNS))
	gm, pmeta, err := LoadGraphShard(as.Graph, as.Shard)
	if err != nil {
		return w.fail(err)
	}
	g := gm.Graph // the mapping stays open for the worker's lifetime
	prog, opts, err := algorithms.New(g, as.Algo, as.Params)
	if err != nil {
		return w.fail(err)
	}
	opts.NumWorkers = as.Shards
	if pmeta != nil {
		// Partitioned graph: adopt the cut's stored vertex→shard map. The
		// local edge set is partial, so recomputing placement from work
		// weights here would diverge from every other process.
		if pmeta.Shards != as.Shards {
			return w.fail(fmt.Errorf("cluster: partition cut for %d shards, run has %d", pmeta.Shards, as.Shards))
		}
		opts.Partitioner = pmeta.Partitioner()
	}
	// The shard publishes its engine.* families into the worker's registry
	// and stamps the coordinator-minted span on everything it traces, so a
	// worker's /metrics and trace are first-class citizens of the fleet.
	opts.Registry = w.cfg.Registry
	opts.Span = as.Span
	sh, err := core.NewShard(g, prog, opts, as.Shard)
	if err != nil {
		return w.fail(err)
	}
	store, err := engine.OpenCheckpointStore(w.cfg.Dir)
	if err != nil {
		return w.fail(err)
	}
	if prev := readShardMarker(w.cfg.Dir); as.RestoreGen >= 0 && prev != as.Shard {
		return w.fail(fmt.Errorf(
			"cluster: directory %s holds checkpoints for shard %d, cannot restore shard %d",
			w.cfg.Dir, prev, as.Shard))
	}
	if err := writeShardMarker(w.cfg.Dir, as.Shard); err != nil {
		return w.fail(err)
	}
	if err := sh.Init(); err != nil {
		return w.fail(err)
	}
	w.sh, w.store = sh, store
	w.self, w.shards, w.epoch = as.Shard, as.Shards, as.Epoch
	w.span = as.Span
	w.graphBytes = gm.Size()
	w.emit(obs.RunStart{Vertices: g.NumVertices(), Workers: as.Shards, Checkpoints: true, Span: as.Span})
	var restored int64
	gen := 0
	if as.RestoreGen >= 0 {
		// Replacement path: reload the committed generation from disk.
		data, meta, err := store.Load(as.RestoreGen)
		if err != nil {
			return w.fail(fmt.Errorf("cluster: restore gen %d: %w", as.RestoreGen, err))
		}
		if err := sh.RestoreDurable(data); err != nil {
			return w.fail(err)
		}
		gen, restored = meta.Gen, meta.Bytes
		w.log.Info("cluster: shard restored from disk", "shard", w.self, "gen", gen,
			"superstep", sh.Superstep(), "bytes", restored)
	} else {
		// Fresh start: generation 0 (post-Init, superstep 1) goes to disk
		// before ready, so a rollback target always exists.
		data, err := sh.CaptureDurable()
		if err != nil {
			return w.fail(err)
		}
		if _, err := store.Save(0, sh.Superstep(), data); err != nil {
			return w.fail(err)
		}
	}
	return w.sendJSON(fReady, readyMsg{
		Epoch: w.epoch, Shard: w.self, Superstep: sh.Superstep(),
		Gen: gen, RestoredBytes: restored, GraphBytes: w.graphBytes,
	})
}

func (w *wrk) handleStep(payload []byte) error {
	var st stepMsg
	if err := parseJSON(payload, &st); err != nil {
		return err
	}
	if w.sh == nil {
		return w.fail(errors.New("cluster: step before assignment"))
	}
	if st.Epoch != w.epoch {
		return nil // stale
	}
	if w.cfg.HangAtSuperstep > 0 && st.Superstep == w.cfg.HangAtSuperstep {
		// Simulate a wedged process: stop heartbeating and go silent until
		// the context tears the test down. The coordinator must recover via
		// lease expiry.
		w.stopHeartbeat()
		w.log.Warn("cluster: hanging on purpose", "superstep", st.Superstep)
		<-w.ctx.Done()
		return w.ctx.Err()
	}
	if got := w.sh.Superstep(); got != st.Superstep {
		return w.fail(fmt.Errorf("cluster: shard %d at superstep %d, coordinator wants %d",
			w.self, got, st.Superstep))
	}
	computeStart := time.Now()
	w.sh.SetPhase(st.Phase)
	if err := w.sh.Compute(); err != nil {
		return w.fail(err)
	}
	outs, err := w.sh.Outbound()
	if err != nil {
		return w.fail(err)
	}
	var peerSendNS, directBytes, relayedBytes int64
	sent := 0
	for dst := 0; dst < w.shards; dst++ {
		if dst == w.self {
			continue
		}
		p := appendDataHeader(nil, dataHeader{epoch: w.epoch, superstep: st.Superstep, src: w.self, dst: dst})
		p = append(p, outs[dst]...)
		t0 := time.Now()
		err := w.mesh.send(dst, p)
		peerSendNS += time.Since(t0).Nanoseconds()
		if err == nil {
			directBytes += int64(len(p))
		} else {
			// Per-batch fallback: the receiver counts batches whichever hop
			// they took, so one dead mesh connection costs an extra hop, not
			// the run. The lease machinery handles a genuinely dead peer.
			if err := w.sendFrame(fData, p); err != nil {
				return err
			}
			relayedBytes += int64(len(p))
		}
		sent++
		if sent == 1 {
			// Kill point "peersend": die mid-ship — the first peer (or the
			// coordinator) holds this superstep's batch, the rest never see it.
			w.maybeCrash("peersend", st.Superstep)
		}
	}
	shipped := time.Now()
	// Kill point "compute": batches are on the wire, delivery has not
	// happened — peers hold partial superstep state when the process dies.
	w.maybeCrash("compute", st.Superstep)
	w.cur = &stepRun{
		step: st.Superstep, ckpt: st.Checkpoint, gen: st.Gen,
		batches: make([][]byte, w.shards), need: w.shards - 1,
		computeNS: shipped.Sub(computeStart).Nanoseconds(), shipped: shipped,
		peerSendNS: peerSendNS, directBytes: directBytes, relayedBytes: relayedBytes,
	}
	// Batches that beat this fStep across the mesh are already parked;
	// adopt them before asking whether the barrier is complete.
	for key, batch := range w.pending {
		switch {
		case key.step < st.Superstep:
			delete(w.pending, key)
		case key.step == st.Superstep:
			delete(w.pending, key)
			// Already here before the ship finished: contributes nothing to
			// the mesh wait clock.
			if err := w.storeBatch(key.src, batch, false); err != nil {
				return err
			}
		}
	}
	return w.finishStepIfReady()
}

// handleData receives one batch that took the coordinator hop. The
// coordinator stream is ordered — fStep always precedes the forwarded
// batches of its superstep — so anything not addressed to the open step is
// stale (in flight across a recovery) and dropped.
func (w *wrk) handleData(payload []byte) error {
	h, batch, err := parseDataHeader(payload)
	if err != nil {
		return err
	}
	if h.epoch != w.epoch || w.cur == nil || h.superstep != w.cur.step || h.dst != w.self {
		return nil // stale (in flight across a recovery)
	}
	if err := w.storeBatch(h.src, batch, false); err != nil {
		return err
	}
	return w.finishStepIfReady()
}

// handleMeshData receives one batch from a peer connection. Unlike the
// coordinator stream, the mesh has no ordering relative to fStep: a fast
// peer's batch for superstep S can land before this worker has read fStep
// S, so batches for future supersteps of the current epoch are parked in
// the pending buffer rather than dropped. Stale epochs are discarded
// exactly as handleData does.
func (w *wrk) handleMeshData(payload []byte) error {
	h, batch, err := parseDataHeader(payload)
	if err != nil {
		return err
	}
	if h.epoch != w.epoch || h.dst != w.self {
		return nil // stale epoch or misrouted leftover of a dead incarnation
	}
	if h.src < 0 || h.src >= w.shards || h.src == w.self {
		return w.fail(fmt.Errorf("cluster: shard %d: bad mesh frame source %d", w.self, h.src))
	}
	if w.cur != nil && h.superstep == w.cur.step {
		if err := w.storeBatch(h.src, batch, true); err != nil {
			return err
		}
		return w.finishStepIfReady()
	}
	if w.sh != nil && h.superstep >= w.sh.Superstep() {
		key := pendKey{step: h.superstep, src: h.src}
		if prev, dup := w.pending[key]; dup {
			if bytes.Equal(prev, batch) {
				return nil
			}
			return w.fail(fmt.Errorf("cluster: shard %d: conflicting early batches from %d at superstep %d",
				w.self, h.src, h.superstep))
		}
		w.pending[key] = batch
		return nil
	}
	return nil // late duplicate of a completed superstep
}

// storeBatch files one peer batch into the open superstep. A byte-identical
// duplicate is dropped, not fatal: a mesh write that times out after the
// kernel buffered the frame is retried through the coordinator, and the
// receiver may legitimately see both copies.
func (w *wrk) storeBatch(src int, batch []byte, viaMesh bool) error {
	if src < 0 || src >= w.shards || src == w.self {
		return w.fail(fmt.Errorf("cluster: shard %d: bad data frame source %d", w.self, src))
	}
	if prev := w.cur.batches[src]; prev != nil {
		if bytes.Equal(prev, batch) {
			return nil
		}
		return w.fail(fmt.Errorf("cluster: shard %d: conflicting batches from %d at superstep %d",
			w.self, src, w.cur.step))
	}
	w.cur.batches[src] = batch
	w.cur.got++
	if viaMesh {
		w.cur.lastDirect = time.Now()
	}
	return nil
}

// finishStepIfReady completes the superstep once every peer batch is in:
// deliver (own outbox first, peers ascending — the bit-identity order),
// barrier, optional durable checkpoint, report.
func (w *wrk) finishStepIfReady() error {
	cur := w.cur
	if cur == nil || cur.got < cur.need {
		return nil
	}
	w.cur = nil
	// The barrier wait ends when the last peer batch has landed; everything
	// from here to the report is delivery + barrier + checkpoint I/O.
	deliverStart := time.Now()
	waitNS := deliverStart.Sub(cur.shipped).Nanoseconds()
	ordered := make([][]byte, 0, cur.need)
	for src := 0; src < w.shards; src++ {
		if src != w.self {
			ordered = append(ordered, cur.batches[src])
		}
	}
	if _, err := w.sh.Deliver(ordered); err != nil {
		return w.fail(err)
	}
	rep := w.sh.Barrier()
	ckptGen, ckptBytes := -1, int64(0)
	if cur.ckpt {
		if w.cfg.Crash.at("checkpoint", cur.step) {
			// Kill point "checkpoint": die between the temp-file write and
			// the atomic rename — a torn write the manifest never admits.
			w.store.CommitHook = func(stage string) {
				if stage == "written" {
					w.crashNow("checkpoint", cur.step)
				}
			}
		}
		data, err := w.sh.CaptureDurable()
		if err != nil {
			return w.fail(err)
		}
		meta, err := w.store.Save(cur.gen, w.sh.Superstep(), data)
		if err != nil {
			return w.fail(err)
		}
		if err := w.store.Prune(w.cfg.KeepCheckpoints); err != nil {
			return w.fail(err)
		}
		ckptGen, ckptBytes = meta.Gen, meta.Bytes
	}
	deliverNS := time.Since(deliverStart).Nanoseconds()
	var peerRecvNS int64
	if !cur.lastDirect.IsZero() {
		if d := cur.lastDirect.Sub(cur.shipped).Nanoseconds(); d > 0 {
			peerRecvNS = d
		}
	}
	w.emit(obs.ShardStep{
		Span: w.span, Superstep: rep.Superstep, Shard: w.self, Epoch: w.epoch,
		ComputeNS: cur.computeNS, WaitNS: waitNS, DeliverNS: deliverNS,
		PeerSendNS: cur.peerSendNS, PeerRecvNS: peerRecvNS,
		ComputeCalls: rep.ComputeCalls, ScatterCalls: rep.ScatterCalls,
		SentMsgs: rep.SentMsgs, SentBytes: rep.SentBytes,
		Delivered: rep.Delivered, Active: int64(rep.Active),
	})
	err := w.sendJSON(fStepDone, stepDoneMsg{
		Epoch: w.epoch, Shard: w.self, StepReport: rep,
		CkptGen: ckptGen, CkptBytes: ckptBytes,
		ComputeNS: cur.computeNS, WaitNS: waitNS, DeliverNS: deliverNS,
		PeerSendNS: cur.peerSendNS, PeerRecvNS: peerRecvNS,
		DirectBytes: cur.directBytes, RelayedBytes: cur.relayedBytes,
	})
	if err != nil {
		return err
	}
	// Kill point "barrier": the barrier report is sent — the coordinator
	// may close the superstep and even commit the checkpoint generation —
	// but this process dies before seeing the next step.
	w.maybeCrash("barrier", cur.step)
	return nil
}

func (w *wrk) handleRollback(payload []byte) error {
	var rb rollbackMsg
	if err := parseJSON(payload, &rb); err != nil {
		return err
	}
	if w.sh == nil {
		return w.fail(errors.New("cluster: rollback before assignment"))
	}
	w.epoch = rb.Epoch
	w.cur = nil
	clear(w.pending) // parked batches belong to the dead epoch
	data, meta, err := w.store.Load(rb.Gen)
	if err != nil {
		return w.fail(fmt.Errorf("cluster: rollback to gen %d: %w", rb.Gen, err))
	}
	if err := w.sh.RestoreDurable(data); err != nil {
		return w.fail(err)
	}
	w.log.Info("cluster: rolled back", "shard", w.self, "gen", rb.Gen,
		"superstep", w.sh.Superstep(), "epoch", w.epoch)
	return w.sendJSON(fReady, readyMsg{
		Epoch: w.epoch, Shard: w.self, Superstep: w.sh.Superstep(),
		Gen: meta.Gen, RestoredBytes: meta.Bytes, GraphBytes: w.graphBytes,
	})
}

func (w *wrk) handleCollect(payload []byte) error {
	var cl collectMsg
	if err := parseJSON(payload, &cl); err != nil {
		return err
	}
	if cl.Epoch != w.epoch {
		return nil // stale
	}
	blob, err := w.sh.EncodeOwnedStates()
	if err != nil {
		return w.fail(err)
	}
	p := appendResultHeader(nil, w.epoch, w.self)
	return w.sendFrame(fResult, append(p, blob...))
}

// sendFrame / sendJSON serialize writes across the main loop and the
// heartbeat goroutine.
func (w *wrk) sendFrame(ftype byte, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeConnFrame(w.conn, ftype, payload)
}

func (w *wrk) sendJSON(ftype byte, v any) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return sendJSON(w.conn, ftype, v)
}

func (w *wrk) startHeartbeat(every time.Duration) {
	if every <= 0 {
		every = DefaultLease / 4
	}
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-w.hbStop:
				return
			case <-w.ctx.Done():
				return
			case <-t.C:
				if err := w.sendFrame(fHeartbeat, nil); err != nil {
					return
				}
			}
		}
	}()
}

func (w *wrk) stopHeartbeat() { w.hbOnce.Do(func() { close(w.hbStop) }) }

func (w *wrk) emit(e obs.Event) {
	if w.cfg.Tracer != nil {
		w.cfg.Tracer.Emit(e)
	}
}

// maybeCrash fires a planted kill point: SIGKILL to self, the closest
// honest stand-in for machine loss — no deferred functions, no flushes.
func (w *wrk) maybeCrash(phase string, superstep int) {
	if w.cfg.Crash.at(phase, superstep) {
		w.crashNow(phase, superstep)
	}
}

func (w *wrk) crashNow(phase string, superstep int) {
	w.log.Warn("cluster: planted crash firing", "phase", phase, "superstep", superstep)
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable: the kill is not catchable
}
