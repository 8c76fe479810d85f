package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
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
	// MeshListenAddr is the address the mesh endpoint listens on; empty
	// means an ephemeral loopback port. Multi-host deployments set this to
	// an externally reachable "<host>:0" (the advertised address is the
	// listener's).
	MeshListenAddr string
	// Registry, when set, receives the worker's engine.* and
	// codec.interval_bytes.* series, which a worker-side /metrics endpoint
	// exposes: the shard's record of each superstep it executes, with the
	// worker's own clocks (obs.EngineSeries.Publish). Nil disables them.
	Registry *obs.Registry
	// Tracer, when set, receives the worker's run trace: a run_start carrying
	// the coordinator-minted span and one shard_step per completed superstep,
	// timed by the worker's own clock. Nil disables tracing.
	Tracer obs.Tracer
	// Logger nil means slog.Default.
	Logger *slog.Logger
}

// stepRun is the in-flight superstep, filled one frame at a time.
type stepRun struct {
	ckpt    bool
	gen     int
	batches [][]byte
	got     int
	need    int

	// rec is the superstep's record while the worker's clock fills it:
	// compute, peer send and direct bytes once the batches are shipped, the
	// rest when the superstep finishes. shipped starts the barrier wait (idle
	// until the last peer batch lands) and lastDirect is when the last mesh
	// batch arrived.
	rec        obs.ShardStep
	shipped    time.Time
	lastDirect time.Time
}

// pendKey indexes an early mesh batch: the peer computed a superstep this
// worker has not opened yet (its fStep is still in flight on the
// coordinator stream, which has no ordering relative to the mesh).
type pendKey struct {
	step int
	src  int
}

// workerIO is everything the worker does to the world outside it: write one
// frame to the coordinator, write one batch straight to a peer (an error
// sends that batch through the coordinator), (re)dial the peers for an
// epoch, renew the lease every so often from now on, read the clock, and
// pass a kill point, where a planted crash may end the process. Every call
// is synchronous, so a failed peer send falls back for that batch alone.
type workerIO interface {
	send(ftype byte, payload []byte) error
	sendPeer(dst int, payload []byte) error
	dialPeers(self, epoch int, addrs []string) error
	heartbeat(every time.Duration)
	now() time.Time
	kill(phase string, superstep int)
}

// wrk is one worker's run state: it makes every protocol decision the
// worker makes, one frame at a time, and reaches the outside only through io.
type wrk struct {
	cfg   WorkerConfig
	io    workerIO
	graph *tgraph.Mapped // the assigned shard's graph, unmapped by close
	sh    *core.Shard
	store *engine.CheckpointStore

	self       int
	shards     int
	epoch      int
	span       string
	graphBytes int64             // resident graph footprint, reported on every ready
	series     *obs.EngineSeries // the Registry's ledger series; nil without one
	cur        *stepRun

	pending map[pendKey][]byte // early mesh batches for unopened supersteps
}

// hello registers with the coordinator, offering back the shard this
// directory's checkpoints belong to.
func (w *wrk) hello(meshAddr string) error {
	return w.sendJSON(fHello, helloMsg{PrevShard: readShardMarker(w.cfg.Dir), MeshAddr: meshAddr})
}

// frame handles one frame from the coordinator; done means the run is over.
// The order between it and handleMeshData is irrelevant: batch delivery is gated
// on completeness and replayed in a canonical order, never arrival order.
func (w *wrk) frame(ftype byte, payload []byte) (done bool, err error) {
	switch ftype {
	case fAssign:
		err = w.handleAssign(payload)
	case fStep:
		err = w.handleStep(payload)
	case fData:
		err = w.handleData(payload)
	case fPeers:
		err = w.handlePeers(payload)
	case fRollback:
		err = w.handleRollback(payload)
	case fCollect:
		err = w.handleCollect(payload)
	case fBye:
		return true, nil
	default:
		err = fmt.Errorf("cluster: unexpected frame type %d from coordinator", ftype)
	}
	return false, err
}

// close releases the shard, then unmaps its graph; the frame loop has
// returned, and results left as encoded frames, so nothing aliases it.
func (w *wrk) close() {
	if w.sh != nil {
		w.sh.Close()
	}
	w.graph.Close()
}

// handlePeers (re)builds the outbound mesh for an epoch, inline (the
// heartbeat keeps the lease), and tells the coordinator the dial attempts
// are over; a peer that did not answer is handleStep's business.
func (w *wrk) handlePeers(payload []byte) error {
	var pm peersMsg
	if err := parseJSON(payload, &pm); err != nil {
		return err
	}
	if pm.Epoch != w.epoch {
		return nil // stale
	}
	if err := w.io.dialPeers(w.self, pm.Epoch, pm.Addrs); err != nil {
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
	w.io.heartbeat(time.Duration(as.HeartbeatNS))
	gm, pmeta, err := LoadGraphShard(as.Graph, as.Shard)
	if err != nil {
		return w.fail(err)
	}
	w.graph = gm // mapped until close, on every failure below too
	g := gm.Graph
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
	// The shard sets its pool gauges in the worker's registry and stamps the
	// coordinator-minted span on everything it traces, so a worker's /metrics
	// and trace are first-class citizens of the fleet.
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
	// Kill point "checkpoint": between a generation's synced temp file and
	// its rename — a torn write no listing of the directory sees. Named by
	// the superstep the generation closes (0 for generation 0).
	store.CommitHook = func(stage string) {
		if stage == "written" {
			w.io.kill("checkpoint", w.sh.Superstep()-1)
		}
	}
	w.sh, w.store = sh, store
	w.self, w.shards, w.epoch = as.Shard, as.Shards, as.Epoch
	w.span = as.Span
	w.graphBytes = gm.Size()
	if w.cfg.Registry != nil {
		w.series = obs.NewEngineSeries(w.cfg.Registry)
	}
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
		w.cfg.Logger.Info("cluster: shard restored from disk", "shard", w.self, "gen", gen,
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
	if got := w.sh.Superstep(); got != st.Superstep {
		return w.fail(fmt.Errorf("cluster: shard %d at superstep %d, coordinator wants %d",
			w.self, got, st.Superstep))
	}
	computeStart := w.io.now()
	w.sh.SetPhase(st.Phase)
	if err := w.sh.Compute(); err != nil {
		return w.fail(err)
	}
	outs, err := w.sh.Outbound()
	if err != nil {
		return w.fail(err)
	}
	rec := obs.ShardStep{Span: w.span, Superstep: st.Superstep, Shard: w.self, Epoch: w.epoch}
	sent := 0
	for dst := 0; dst < w.shards; dst++ {
		if dst == w.self {
			continue
		}
		p := appendDataHeader(nil, dataHeader{epoch: w.epoch, superstep: st.Superstep, src: w.self, dst: dst})
		p = append(p, outs[dst]...)
		t0 := w.io.now()
		err := w.io.sendPeer(dst, p)
		rec.PeerSendNS += w.io.now().Sub(t0).Nanoseconds()
		// Per-batch fallback: a batch the mesh did not take goes through the
		// coordinator. The receiver counts batches whichever hop they took, so
		// one dead mesh connection costs an extra hop, not the run. The lease
		// machinery handles a genuinely dead peer.
		if err == nil {
			rec.DirectBytes += int64(len(p))
		} else if err := w.io.send(fData, p); err != nil {
			return err
		}
		sent++
		if sent == 1 {
			// Kill point "peersend": die mid-ship — the first peer (or the
			// coordinator) holds this superstep's batch, the rest never see it.
			w.io.kill("peersend", st.Superstep)
		}
	}
	shipped := w.io.now()
	rec.ComputeNS = shipped.Sub(computeStart).Nanoseconds()
	// Kill point "compute": batches are on the wire, delivery has not
	// happened — peers hold partial superstep state when the process dies.
	w.io.kill("compute", st.Superstep)
	w.cur = &stepRun{
		ckpt: st.Checkpoint, gen: st.Gen,
		batches: make([][]byte, w.shards), need: w.shards - 1,
		rec: rec, shipped: shipped,
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
	if h.epoch != w.epoch || w.cur == nil || h.superstep != w.cur.rec.Superstep || h.dst != w.self {
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
	if w.cur != nil && h.superstep == w.cur.rec.Superstep {
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
			w.self, src, w.cur.rec.Superstep))
	}
	w.cur.batches[src] = batch
	w.cur.got++
	if viaMesh {
		w.cur.lastDirect = w.io.now()
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
	rec := &cur.rec
	deliverStart := w.io.now()
	rec.WaitNS = deliverStart.Sub(cur.shipped).Nanoseconds()
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
		data, err := w.sh.CaptureDurable()
		if err != nil {
			return w.fail(err)
		}
		meta, err := w.store.Save(cur.gen, w.sh.Superstep(), data)
		if err != nil {
			return w.fail(err)
		}
		if err := w.store.Prune(engine.DefaultKeepGenerations); err != nil {
			return w.fail(err)
		}
		ckptGen, ckptBytes = meta.Gen, meta.Bytes
	}
	rec.DeliverNS = w.io.now().Sub(deliverStart).Nanoseconds()
	if !cur.lastDirect.IsZero() {
		rec.PeerRecvNS = max(0, cur.lastDirect.Sub(cur.shipped).Nanoseconds())
	}
	w.emit(*rec)
	if w.series != nil {
		end := rep.SuperstepEnd
		end.Add(rec.Clocks())
		w.series.Publish(end)
	}
	err := w.sendJSON(fStepDone, stepDoneMsg{StepReport: rep, Step: *rec, CkptGen: ckptGen, CkptBytes: ckptBytes})
	if err != nil {
		return err
	}
	// Kill point "barrier": the barrier report is sent — the coordinator
	// may close the superstep and even commit the checkpoint generation —
	// but this process dies before seeing the next step.
	w.io.kill("barrier", rec.Superstep)
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
	w.cfg.Logger.Info("cluster: rolled back", "shard", w.self, "gen", rb.Gen,
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
	return w.io.send(fResult, append(p, blob...))
}

func (w *wrk) sendJSON(ftype byte, v any) error {
	p, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cluster: encode frame %d: %w", ftype, err)
	}
	return w.io.send(ftype, p)
}

func (w *wrk) emit(e obs.Event) {
	if w.cfg.Tracer != nil {
		w.cfg.Tracer.Emit(e)
	}
}
