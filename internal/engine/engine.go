// Package engine implements the distributed bulk-synchronous-parallel
// substrate that both the interval-centric model (internal/core) and the
// vertex-centric baselines (internal/vcm) run on. It plays the role Apache
// Giraph plays for GRAPHITE in the paper: hash-partitioned vertex ownership
// across workers, superstep execution with global barriers, bulk message
// exchange with optional combining at send and on arrival, named
// aggregators, a master-compute hook, and vote-to-halt semantics where
// vertices are only reactivated by incoming messages.
//
// Workers are goroutines; partitioning, message routing, byte accounting and
// barrier timing mirror a distributed deployment so that the experiment
// metrics (compute+ time, exclusive messaging time, message bytes) are
// meaningful.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// Message is the engine-level message envelope: a payload valid for a
// time-interval, addressed to a dense vertex index. Non-temporal platforms
// use a fixed interval. The payload is a codec.Word laid out flat — its kind
// in Dst's padding — so a message is 40 bytes and holds no pointer: a payload
// outside the word palette sits in the spill table of the slab the message is
// in, read back with Context.Payload.
type Message struct {
	Dst  int32
	Kind codec.Kind
	When ival.Interval
	A, B uint64
}

// Word returns the message's payload word.
func (m Message) Word() codec.Word { return codec.Word{K: m.Kind, A: m.A, B: m.B} }

// newMessage lays a payload word out in a message.
func newMessage(dst int32, when ival.Interval, w codec.Word) Message {
	return Message{Dst: dst, Kind: w.K, When: when, A: w.A, B: w.B}
}

// Program is the per-vertex logic a platform layers over the engine.
type Program interface {
	// Init runs once for every vertex before superstep 1.
	Init(ctx *Context)
	// Run executes one superstep for an active vertex with its inbox. The
	// msgs slice is only valid for the duration of the call: its backing
	// buffer is pooled and recycled for a later superstep as soon as Run
	// returns, so implementations must copy anything they keep.
	Run(ctx *Context, msgs []Message)
}

// Master receives control at the barrier before each superstep, after
// aggregators are merged; it can read aggregates, switch phases and halt the
// computation.
type Master interface {
	BeforeSuperstep(mc *MasterControl)
}

// Combiner merges two message payloads addressed to the same vertex for the
// same interval: at the sender, which folds each of its batches in send
// order, and on arrival, where the per-source partials fold in delivery order
// (fold.go). It must be commutative and associative. Only inline words are
// combined, into an inline word: a spilled payload is delivered as it is.
type Combiner func(a, b codec.Word) codec.Word

// Config parameterizes a run.
type Config struct {
	// NumWorkers is the number of BSP workers ("machines"). Zero means
	// GOMAXPROCS.
	NumWorkers int
	// MaxSupersteps bounds the run; zero means no bound.
	MaxSupersteps int
	// ActivateAll keeps every vertex active in every superstep (PageRank
	// style); the run then ends via MaxSupersteps or a master halt, one of
	// which it requires.
	ActivateAll bool
	// Partitioner assigns each dense vertex index to a worker; nil means
	// modulo hashing (Giraph's default hash partitioner). Exploring
	// partitioning strategies is the paper's stated future work; the seam
	// makes locality experiments possible.
	Partitioner func(vertex, numWorkers int) int
	// Combiner, if set, merges payloads of messages to the same vertex
	// with identical intervals: in each batch a worker sends, when its
	// compute phase ends, and across sources as they are delivered.
	Combiner Combiner
	// PayloadCodec, when set, accounts encoded payload bytes and encodes
	// every batch that leaves a worker: over a Transport, to a peer shard, or
	// into a checkpoint.
	PayloadCodec codec.Payload
	// Transport, when set, routes every cross-worker batch through it
	// (e.g. TCPTransport's loopback mesh), fully serialized; delivery order
	// and so every result are the same as without it. Requires PayloadCodec.
	Transport Transport
	// Master is the optional master-compute hook.
	Master Master
	// CheckpointEvery, when > 0, captures a recovery point after every k-th
	// superstep barrier (plus one before superstep 1): user vertex state via
	// the Snapshotter contract, inboxes and active sets — encoded, in the
	// format of a Shard's durable capture — plus the barrier's state (phase,
	// merged aggregates, run totals). A failed superstep — user-program
	// panic, codec failure or transport error — then rolls back to the latest
	// checkpoint and replays instead of aborting the run. Requires
	// PayloadCodec and a Program implementing Snapshotter. Masters are
	// re-invoked on replayed supersteps and must tolerate that (the replayed
	// aggregates they see are identical).
	CheckpointEvery int
	// MaxRecoveries bounds rollback-and-replay attempts per run, counted over
	// the whole run; zero means DefaultMaxRecoveries and negative means
	// unlimited. Only meaningful with CheckpointEvery > 0, or for the cluster
	// coordinator's barrier.
	MaxRecoveries int
	// Tracer, when set, receives the typed per-superstep event stream:
	// run/superstep lifecycle, per-worker phase timings, checkpoint, recovery
	// and send-retry events. Lifecycle events are emitted from the
	// coordinating goroutine in deterministic order; only send-retry events
	// fire from workers. Nil disables tracing with no overhead on the send
	// path.
	Tracer obs.Tracer
	// Registry, when set, is where the engine publishes its counters and
	// histograms (e.g. for the /metrics endpoint) — the work executed,
	// replays included; nil gives the engine a private registry. Runs may
	// share one: the Metrics Run returns are its barrier's, not the
	// registry's.
	Registry *obs.Registry
	// Context, when set, makes the run cancellable: workers stop claiming
	// vertices as soon as they observe cancellation, and Run aborts at the
	// next superstep barrier with an error wrapping ErrCanceled. Cancellation
	// is an external abort, never a recoverable fault — it bypasses
	// checkpoint rollback-and-replay. Nil means the run cannot be canceled.
	Context context.Context
	// Span, when set, is the run-scoped span ID (obs.NewSpanID) minted by
	// whoever admitted this query — graphite-serve, a CLI, or the cluster
	// coordinator. It is stamped on the trace's run_start so the run can be
	// correlated across process boundaries; empty leaves the trace unscoped.
	Span string
}

// Fault-tolerance defaults.
const (
	// DefaultMaxRecoveries is the rollback-and-replay budget per run when
	// Config.MaxRecoveries is zero, for Run and the cluster alike.
	DefaultMaxRecoveries = 3
	// sendRetries is how many times a failed Transport.Send is retried, with
	// capped exponential backoff, before the superstep is declared failed.
	sendRetries = 2
	// sendRetryBackoff is the initial delay between Send retries; it doubles
	// per attempt, capped at 16x, with equal jitter (see RetryDelay).
	sendRetryBackoff = 2 * time.Millisecond
)

// Errors reported by Run.
var (
	ErrNoVertices = errors.New("engine: graph has no vertices")
	ErrBadConfig  = errors.New("engine: invalid configuration")
)

// Engine executes a Program over a vertex set.
type Engine struct {
	cfg      Config
	program  Program
	numV     int
	workers  []*worker
	barrier  *Barrier
	part     []int32 // vertex -> worker
	slot     []int32 // vertex -> local slot within its worker
	superstp int

	// inline is the kind of word PayloadCodec's values are when the codec has
	// a word form, codec.NoInline otherwise: a message of that kind is sized
	// and encoded without leaving its 16 bytes.
	inline codec.Kind

	// Observability: the registry is a sink for the work executed; the run's
	// totals, and so its Metrics, are the barrier's.
	reg    *obs.Registry
	ec     engCounters
	tracer obs.Tracer
	traced bool

	errMu  sync.Mutex
	runErr error       // first failure of the current superstep
	hasErr atomic.Bool // lock-free mirror of runErr != nil

	ctx context.Context // nil when the run is not cancellable

	ckpt []byte // the capture of Run's latest recovery point
}

// worker owns the vertices with index ≡ id (mod numWorkers).
type worker struct {
	id     int
	eng    *Engine
	local  []int32    // dense vertex indices owned by this worker
	inbox  []*msgSlab // per local slot; arena-pooled, nil when empty
	active []bool     // per local slot; dedup bitmap behind the frontier
	outbox []*msgSlab // per destination worker, refilled every superstep; arena-pooled across runs

	// Dense frontier: slots activated since the last compute phase, appended
	// at delivery time (activation order), sorted at compute start. Grow-only.
	frontier []int32
	allSlots []int32 // lazily built 0..len(local)-1 schedule for ActivateAll

	// The superstep's partials, reported to the barrier after every
	// superstep (report): the counts and the aggregator partials, in the
	// barrier's name order. The interval bytes by encoding class go to the
	// registry only.
	rep        StepReport
	classBytes [codec.NumIntervalClasses]int64

	// Per-phase observations for the superstep in flight: each worker
	// records into its own fields; the coordinator reads them after the
	// phase barrier (workers are quiescent then), so no synchronization.
	computeNS  int64
	shipNS     int64
	exchangeNS int64

	scratch []byte   // spilled-payload sizing buffer, reused across sends
	decode  *msgSlab // transport decode buffer, reused across batches; arena-pooled across runs

	// cctx is the worker's persistent compute Context: &cctx escapes into
	// Program.Run through the interface call, and a per-phase local would
	// heap-allocate once per worker per superstep.
	cctx Context
}

// New prepares an engine for numVertices vertices.
func New(numVertices int, program Program, cfg Config) (*Engine, error) {
	if numVertices <= 0 {
		return nil, ErrNoVertices
	}
	if program == nil {
		return nil, fmt.Errorf("%w: nil program", ErrBadConfig)
	}
	if cfg.NumWorkers <= 0 {
		cfg.NumWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.NumWorkers > numVertices {
		cfg.NumWorkers = numVertices
	}
	if cfg.Transport != nil && cfg.PayloadCodec == nil {
		return nil, fmt.Errorf("%w: Transport requires PayloadCodec", ErrBadConfig)
	}
	if cfg.CheckpointEvery > 0 {
		if _, ok := program.(Snapshotter); !ok {
			return nil, fmt.Errorf("%w: CheckpointEvery requires a Program implementing Snapshotter", ErrBadConfig)
		}
		if cfg.PayloadCodec == nil {
			return nil, fmt.Errorf("%w: CheckpointEvery requires PayloadCodec", ErrBadConfig)
		}
	}
	b, err := NewBarrier(cfg, nil)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		program: program,
		numV:    numVertices,
		barrier: b,
		part:    make([]int32, numVertices),
		slot:    make([]int32, numVertices),
		tracer:  cfg.Tracer,
		traced:  cfg.Tracer != nil,
		ctx:     cfg.Context,
	}
	e.inline = codec.InlineKind(cfg.PayloadCodec)
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.bindRegistry(reg)
	part := cfg.Partitioner
	if part == nil {
		part = func(v, n int) int { return v % n }
	}
	e.workers = make([]*worker, cfg.NumWorkers)
	for w := range e.workers {
		e.workers[w] = &worker{id: w, eng: e, outbox: make([]*msgSlab, cfg.NumWorkers)}
	}
	for v := 0; v < numVertices; v++ {
		w := part(v, cfg.NumWorkers)
		if w < 0 || w >= cfg.NumWorkers {
			return nil, fmt.Errorf("%w: partitioner sent vertex %d to worker %d of %d",
				ErrBadConfig, v, w, cfg.NumWorkers)
		}
		wk := e.workers[w]
		e.part[v] = int32(w)
		e.slot[v] = int32(len(wk.local))
		wk.local = append(wk.local, int32(v))
	}
	for _, wk := range e.workers {
		wk.inbox = make([]*msgSlab, len(wk.local))
		wk.active = make([]bool, len(wk.local))
	}
	return e, nil
}

// drawOutboxes starts the worker's outboxes from pooled buffers, so a run
// begins at the capacity an earlier one grew to. Only workers that will
// execute draw: a shard's engine has routing entries for every worker but
// sends from one.
func (w *worker) drawOutboxes() {
	for d := range w.outbox {
		w.outbox[d] = outboxArena.get()
	}
}

// releaseBuffers hands the engine's pooled buffers back for the next run:
// undelivered inbox slabs (MaxSupersteps or a failure can end a run with
// messages still queued), every outbox and the decode buffer. Nothing may
// send afterwards: the outboxes are left nil.
func (e *Engine) releaseBuffers() {
	for _, w := range e.workers {
		for s, sl := range w.inbox {
			if sl != nil {
				w.inbox[s] = nil
				msgArena.put(sl)
			}
		}
		for d, ob := range w.outbox {
			outboxArena.put(ob)
			w.outbox[d] = nil
		}
		outboxArena.put(w.decode)
		w.decode = nil
	}
}

// RegisterAggregator installs a named aggregator before Run.
func (e *Engine) RegisterAggregator(name string, agg *Aggregator) { e.barrier.register(name, agg) }

// owner returns the worker id and local slot for a vertex index.
func (e *Engine) owner(v int32) (wid, slot int) {
	return int(e.part[v]), int(e.slot[v])
}

// Run executes supersteps until no vertex is active and no messages are in
// flight (or the master halts, or MaxSupersteps is reached), and returns the
// run metrics. Panics escaping user Program code are recovered and surfaced
// as a *VertexPanicError; with CheckpointEvery set, failed supersteps are
// rolled back to the latest checkpoint and replayed instead. When
// Config.Context is canceled the run aborts at the next superstep barrier
// with an error wrapping ErrCanceled, leaving no goroutines behind.
func (e *Engine) Run() (*Metrics, error) {
	// Every return below is past a phase barrier: no worker goroutine is
	// left to touch a buffer.
	defer e.releaseBuffers()
	for _, w := range e.workers {
		w.drawOutboxes()
		w.resetPartials()
	}
	start := time.Now()
	reps := make([]StepReport, len(e.workers))
	if e.traced {
		e.tracer.Emit(obs.RunStart{
			Vertices:    e.numV,
			Workers:     len(e.workers),
			Checkpoints: e.cfg.CheckpointEvery > 0,
			Span:        e.cfg.Span,
		})
	}

	// Superstep 1 initialization: Init on every vertex, all active.
	e.superstp = 1
	e.parallel((*worker).init)
	if err := e.canceled(); err != nil {
		return nil, err
	}
	if err := e.takeErr(); err != nil {
		// No checkpoint can exist yet: an Init failure is terminal.
		return nil, err
	}
	if e.cfg.CheckpointEvery > 0 {
		if err := e.saveCheckpoint(); err != nil {
			return nil, err
		}
	}

	for {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		if !e.barrier.open(e.superstp, e) {
			break
		}

		if e.traced {
			e.tracer.Emit(obs.SuperstepStart{Superstep: e.superstp, Active: e.countActive()})
		}

		// Compute phase: user logic over the dense active frontier,
		// interleaved with message emission into outboxes ("compute+" in the
		// paper).
		t0 := time.Now()
		e.parallel((*worker).compute)
		t1 := time.Now()
		// Cancellation wins over a concurrent fault: the run is being torn
		// down either way, and rollback must never replay a canceled phase.
		if err := e.canceled(); err != nil {
			return nil, err
		}
		if e.failed() {
			// A compute failure leaves no frames in flight: rollback never
			// needs a transport reset here.
			if e.rollback(false) {
				continue
			}
			return nil, e.takeErr()
		}
		if e.traced {
			// Worker partials hold exactly the compute phase's deltas here:
			// they were reset at the previous barrier and the exchange phase
			// does not touch them.
			e.emitWorkerPhases("compute")
		}

		// Messaging phase: exclusive message delivery after compute.
		e.exchange()
		t2 := time.Now()

		// A failed exchange is checked before the barrier merge so a partial
		// superstep's metrics are never folded into the totals.
		if err := e.canceled(); err != nil {
			return nil, err
		}
		if e.failed() {
			if e.rollback(true) {
				continue
			}
			return nil, e.takeErr()
		}
		if e.traced {
			if e.cfg.Transport != nil {
				e.emitWorkerPhases("ship")
			}
			e.emitWorkerPhases("exchange")
		}

		// Barrier: every worker reports to the barrier, in worker order — the
		// aggregates merge, the counts fold into the run's totals, the halt
		// rule is decided — then the partials go to the registry.
		for i, w := range e.workers {
			reps[i] = w.report()
		}
		quiesced := e.barrier.Close(reps)
		var classBytes [codec.NumIntervalClasses]int64
		for _, w := range e.workers {
			for i, n := range w.classBytes {
				classBytes[i] += n
			}
			w.publish()
		}
		t3 := time.Now()

		computeD, messagingD, barrierD := t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		end := e.barrier.SuperstepEnd(e.superstp, computeD, messagingD, barrierD)
		e.ec.computeNS.Add(computeD.Nanoseconds())
		e.ec.messagingNS.Add(messagingD.Nanoseconds())
		e.ec.barrierNS.Add(barrierD.Nanoseconds())
		e.ec.hCompute.Observe(computeD)
		e.ec.hMessaging.Observe(messagingD)
		e.ec.hBarrier.Observe(barrierD)
		e.ec.supersteps.Inc()
		e.setPoolGauges()
		e.ec.activeVertices.Set(int64(e.countActive()))
		e.ec.imbalance.Set(e.imbalanceMilli())
		if e.traced {
			end.Intervals = obs.IntervalBytes{
				Unit:      classBytes[codec.ClassUnit],
				Unbounded: classBytes[codec.ClassUnbounded],
				General:   classBytes[codec.ClassGeneral],
				Empty:     classBytes[codec.ClassEmpty],
			}
			e.tracer.Emit(end)
		}
		e.superstp++

		if e.cfg.CheckpointEvery > 0 && (e.superstp-1)%e.cfg.CheckpointEvery == 0 {
			if err := e.saveCheckpoint(); err != nil {
				return nil, err
			}
		}
		if quiesced {
			break
		}
	}
	m, end := e.barrier.End(time.Since(start))
	e.ec.makespanNS.Store(int64(m.Makespan))
	e.setPoolGauges()
	if e.traced {
		e.tracer.Emit(end)
	}
	return m, nil
}

// fail records the first failure of the current superstep.
func (e *Engine) fail(err error) {
	e.errMu.Lock()
	if e.runErr == nil {
		e.runErr = err
		e.hasErr.Store(true)
	}
	e.errMu.Unlock()
}

// failed reports whether the current superstep has failed; workers use it to
// stop early instead of computing doomed vertices.
func (e *Engine) failed() bool { return e.hasErr.Load() }

// canceled returns the typed cancellation error once Config.Context is done,
// else nil. Only the coordinating goroutine calls it, at barriers.
func (e *Engine) canceled() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return fmt.Errorf("%w at superstep %d: %v", ErrCanceled, e.superstp, e.ctx.Err())
	default:
		return nil
	}
}

// aborted reports whether workers should stop claiming vertices: either the
// superstep has failed or the run's context was canceled. The phase still
// runs to its barrier, where the coordinator surfaces the typed error.
func (e *Engine) aborted() bool {
	if e.hasErr.Load() {
		return true
	}
	if e.ctx != nil {
		select {
		case <-e.ctx.Done():
			return true
		default:
		}
	}
	return false
}

// takeErr returns the recorded failure, if any.
func (e *Engine) takeErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.runErr
}

// clearErr resets the failure state after a successful rollback.
func (e *Engine) clearErr() {
	e.errMu.Lock()
	e.runErr = nil
	e.hasErr.Store(false)
	e.errMu.Unlock()
}

// guardedCall runs one user-program invocation for a vertex, converting an
// escaping panic into a *VertexPanicError recorded as the superstep failure;
// it reports whether fn completed normally.
func (e *Engine) guardedCall(vertex int, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(&VertexPanicError{
				Vertex:    vertex,
				Superstep: e.superstp,
				Value:     r,
				Stack:     debug.Stack(),
			})
		}
	}()
	fn()
	return true
}

// parallel runs fn once per worker, concurrently, and waits for all. A panic
// escaping fn itself (engine bugs, codec paths outside guardedCall) is
// recovered as a run failure rather than killing the process.
func (e *Engine) parallel(fn func(*worker)) {
	var wg sync.WaitGroup
	wg.Add(len(e.workers))
	for _, w := range e.workers {
		go func(w *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					e.fail(&VertexPanicError{
						Vertex:    -1,
						Superstep: e.superstp,
						Value:     r,
						Stack:     debug.Stack(),
					})
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// exchange moves all outbox batches to destination inboxes, applying the
// combiner across sources; each worker counts what it delivered. Over a
// Transport the cross-worker batches are shipped first.
func (e *Engine) exchange() {
	if e.cfg.Transport != nil {
		e.parallel((*worker).ship)
	}
	e.parallel((*worker).exchange)
}

// ship encodes and sends each of the worker's cross-worker batches over the
// Transport. A failed Send is retried with capped exponential backoff before
// the superstep is declared failed: transient faults (a dropped frame, a
// congested peer) should not force a rollback.
func (w *worker) ship() {
	e := w.eng
	phaseStart := time.Now()
	defer func() { w.shipNS = time.Since(phaseStart).Nanoseconds() }()
	for dst := range e.workers {
		if dst == w.id {
			continue
		}
		// Encode into a pooled slab; Transport.Send must not retain the
		// batch (see the Transport contract), so the slab can go straight
		// back to the pool for the next destination.
		slab := batchSlabs.Get()
		slab.Buf = e.encodeBatch(slab.Buf, w.outbox[dst])
		err := e.sendWithRetry(w.id, dst, slab.Buf)
		batchSlabs.Put(slab)
		if err != nil {
			e.fail(err)
		}
		w.outbox[dst].reset()
	}
}

// exchange is one worker's receive phase within Run, called directly by the
// alloc gates: at steady state it must not allocate.
func (w *worker) exchange() {
	e := w.eng
	phaseStart := time.Now()
	var err error
	if e.cfg.Transport == nil {
		w.rep.Delivered, err = w.receive(len(e.workers)-1, w.peerOutbox)
	} else {
		var batches [][]byte
		if batches, err = e.cfg.Transport.Recv(w.id); err == nil {
			w.rep.Delivered, err = w.receiveWire(batches)
		}
	}
	if err != nil {
		e.fail(err)
	}
	w.exchangeNS = time.Since(phaseStart).Nanoseconds()
}

// receive is a worker's receive phase, and the one routine that sets the
// order messages are delivered in, whatever carries the batches: the
// self-addressed outbox first, then peer(0) … peer(peers-1), the peers'
// batches in ascending source order. Each source folded its batches as its
// compute phase ended (fold.go), so the combiner folds peers' partials into
// what arrived before them, and the own outbox, arriving first into inboxes
// the compute phase emptied, is delivered as it is. A batch may have come
// over the wire, so a message for a vertex another worker owns is a corrupt
// batch — never a delivery to whichever local vertex shares its slot number.
// Each batch is emptied once delivered. It returns the number of messages
// delivered.
func (w *worker) receive(peers int, peer func(i int) (*msgSlab, error)) (int64, error) {
	var n int64
	batch, c := w.outbox[w.id], Combiner(nil)
	for i := 0; ; i++ {
		for _, m := range batch.msgs {
			dw, slot := w.eng.owner(m.Dst)
			if dw != w.id {
				return n, fmt.Errorf("engine: worker %d received a message for vertex %d, which worker %d owns: %w",
					w.id, m.Dst, dw, codec.ErrCorrupt)
			}
			w.deliver(slot, m, batch.spill, c)
			n++
		}
		batch.reset()
		if i == peers {
			return n, nil
		}
		var err error
		if batch, err = peer(i); err != nil {
			return n, err
		}
		c = w.eng.cfg.Combiner
	}
}

// peerOutbox is the i-th peer's batch in process: the outbox slab that source
// worker filled for this one, handed over without encoding.
func (w *worker) peerOutbox(i int) (*msgSlab, error) {
	if i >= w.id {
		i++
	}
	return w.eng.workers[i].outbox[w.id], nil
}

// receiveWire is receive over serialized batches — from a Transport, or
// handed to a Shard — each decoded into the worker's reusable buffer, drawn
// from the outbox arena on first use: a run in process never needs one.
func (w *worker) receiveWire(batches [][]byte) (int64, error) {
	if w.decode == nil {
		w.decode = outboxArena.get()
	}
	defer w.decode.reset()
	return w.receive(len(batches), func(i int) (*msgSlab, error) {
		w.decode.reset()
		return w.decode, w.eng.decodeBatchInto(w.decode, batches[i])
	})
}

// deliver appends a message to a local inbox slab, or combines it under c,
// and marks the vertex active; from is the spill table of the slab m comes
// out of. Slabs come from the arena on first delivery and go back right after
// the vertex's Run call consumes them.
func (w *worker) deliver(slot int, m Message, from []any, c Combiner) {
	sl := w.inbox[slot]
	if sl == nil {
		sl = msgArena.get()
		w.inbox[slot] = sl
	}
	if c != nil && m.Kind != codec.KindSpill {
		for i := range sl.msgs {
			if o := &sl.msgs[i]; o.When == m.When && o.Kind != codec.KindSpill {
				*o = newMessage(o.Dst, o.When, c(o.Word(), m.Word()))
				w.activate(slot)
				return
			}
		}
	}
	sl.add(m, from)
	w.activate(slot)
}

// sendWithRetry ships one batch, retrying transient failures sendRetries
// times before giving up.
func (e *Engine) sendWithRetry(src, dst int, batch []byte) error {
	var err error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		if attempt > 0 {
			// Capped exponential backoff with equal jitter: concurrent workers
			// retrying a congested peer must not re-collide in lockstep.
			time.Sleep(RetryDelay(sendRetryBackoff, attempt, 16*sendRetryBackoff))
		}
		if err = e.cfg.Transport.Send(src, dst, batch); err == nil {
			return nil
		}
		// Retry accounting fires from worker goroutines: the counter is
		// atomic and tracers are required to be concurrency-safe. superstp
		// is stable here (only mutated at barriers).
		e.ec.sendRetries.Inc()
		if e.traced {
			e.tracer.Emit(obs.SendRetry{
				Superstep: e.superstp,
				Src:       src,
				Dst:       dst,
				Attempt:   attempt + 1,
				Error:     err.Error(),
			})
		}
	}
	return fmt.Errorf("engine: send %d->%d failed after %d attempts: %w", src, dst, sendRetries+1, err)
}

// Halted reports whether the master stopped the run.
func (e *Engine) Halted() bool { return e.barrier.Halted() }
