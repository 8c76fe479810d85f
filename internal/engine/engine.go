// Package engine implements the distributed bulk-synchronous-parallel
// substrate that both the interval-centric model (internal/core) and the
// vertex-centric baselines (internal/vcm) run on. It plays the role Apache
// Giraph plays for GRAPHITE in the paper: hash-partitioned vertex ownership
// across workers, superstep execution with global barriers, bulk message
// exchange with optional combining at send and on arrival, named
// aggregators, a master-compute hook, and vote-to-halt semantics where
// vertices are only reactivated by incoming messages.
//
// A worker is a Shard. Run steps every shard of its engine, one goroutine
// each, through the phases the cluster steps one shard through from outside
// (shard.go), so one superstep sequence, one panic guard and one failure
// channel serve both; partitioning, message routing, byte accounting and
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
	"slices"
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
	// msgs slice is only valid for the duration of the call: it is the
	// vertex's range of its worker's inbox, which the next exchange
	// refills, so implementations must copy anything they keep.
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
	// into a shard's durable capture.
	PayloadCodec codec.Payload
	// Transport, when set, routes every cross-worker batch through it
	// (e.g. TCPTransport's loopback mesh), fully serialized; delivery order
	// and so every result are the same as without it. Requires PayloadCodec.
	Transport Transport
	// Aggregators are the named aggregators vertices contribute to
	// (Context.Aggregate) and the master reads, fixed for the run.
	Aggregators map[string]*Aggregator
	// Master is the optional master-compute hook.
	Master Master
	// MaxRecoveries is the budget of the Barrier built from this Config:
	// how many times Barrier.Rewind may return it to its committed state over
	// the whole run, one per worker the cluster coordinator loses. Zero means
	// DefaultMaxRecoveries and negative means unlimited. Run never rewinds.
	MaxRecoveries int
	// Tracer, when set, receives the typed per-superstep event stream:
	// run/superstep lifecycle and each shard's obs.ShardStep, all emitted from
	// the coordinating goroutine in deterministic order. Nil disables
	// tracing.
	Tracer obs.Tracer
	// Registry, when set, is where the engine publishes (e.g. for the
	// /metrics endpoint): Run each superstep's record and its run_end
	// (obs.EngineSeries), both drivers the pool gauges; a stepped Shard's
	// record is its driver's to publish. Nil gives the engine a private
	// registry. Runs may share one: the record Run returns is its
	// barrier's, not the registry's.
	Registry *obs.Registry
	// Context, when set, makes the run cancellable: workers stop claiming
	// vertices as soon as they observe cancellation, and Run aborts at the
	// next superstep barrier with an error wrapping ErrCanceled. Nil means
	// the run cannot be canceled.
	Context context.Context
	// Span, when set, is the run-scoped span ID (obs.NewSpanID) minted by
	// whoever admitted this query — graphite-serve, a CLI, or the cluster
	// coordinator. It is stamped on the trace's run_start so the run can be
	// correlated across process boundaries; empty leaves the trace unscoped.
	Span string
}

// DefaultMaxRecoveries is a Barrier's rewind budget when
// Config.MaxRecoveries is zero.
const DefaultMaxRecoveries = 3

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
	workers  []*Shard
	barrier  *Barrier
	part     []int32 // vertex -> worker
	slot     []int32 // vertex -> local slot within its worker
	superstp int

	// inline is the kind of word PayloadCodec's values are when the codec has
	// a word form, codec.NoInline otherwise: a message of that kind is sized
	// and encoded without leaving its 16 bytes.
	inline codec.Kind

	// Observability: the registry is a sink for the work executed; the run's
	// totals, and so its record, are the barrier's. skew is Run's compute
	// skew across its shards (max/mean ·1000).
	series *obs.EngineSeries
	skew   *obs.Gauge
	tracer obs.Tracer
	traced bool

	errMu  sync.Mutex
	runErr error       // first failure of the current superstep
	hasErr atomic.Bool // lock-free mirror of runErr != nil

	ctx context.Context // nil when the run is not cancellable
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
	b, err := NewBarrier(cfg)
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
	e.series, e.skew = obs.NewEngineSeries(reg), reg.Gauge(obs.GClusterSkewMilli)
	part := cfg.Partitioner
	if part == nil {
		part = func(v, n int) int { return v % n }
	}
	e.workers = make([]*Shard, cfg.NumWorkers)
	for w := range e.workers {
		e.workers[w] = &Shard{id: w, eng: e, outbox: make([]*msgSlab, cfg.NumWorkers)}
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
		wk.active = make([]bool, len(wk.local))
		wk.at, wk.end = make([]int32, len(wk.local)), make([]int32, len(wk.local))
	}
	return e, nil
}

// drawBuffers starts the shard's outboxes and inbox from pooled buffers, so
// a run begins at the capacity an earlier one grew to. Only shards that will
// execute draw: NewShard's engine has routing entries for every shard but
// sends from one.
func (s *Shard) drawBuffers() {
	for d := range s.outbox {
		s.outbox[d] = outboxArena.get()
	}
	s.inbox = outboxArena.get()
}

// releaseBuffers hands the engine's pooled buffers back for the next run:
// every outbox and the inbox, with whatever it still holds (MaxSupersteps or
// a failure can end a run with messages undelivered). Nothing may send or
// receive afterwards: the buffers are left nil.
func (e *Engine) releaseBuffers() {
	for _, s := range e.workers {
		for d, ob := range s.outbox {
			outboxArena.put(ob)
			s.outbox[d] = nil
		}
		outboxArena.put(s.inbox)
		s.inbox = nil
	}
}

// owner returns the worker id and local slot for a vertex index.
func (e *Engine) owner(v int32) (wid, slot int) {
	return int(e.part[v]), int(e.slot[v])
}

// Run executes supersteps until no vertex is active and no messages are in
// flight (or the master halts, or MaxSupersteps is reached), and returns the
// run's record, the run_end it traces. A failed superstep ends the run with
// its error: a panic escaping user Program code as a *VertexPanicError, an
// error reported through Context.Fail, a codec or Transport error as
// returned. When
// Config.Context is canceled the run aborts at the next superstep barrier
// with an error wrapping ErrCanceled, leaving no goroutines behind.
func (e *Engine) Run() (*obs.RunEnd, error) {
	// Every return below is past a phase barrier: no shard's goroutine is
	// left to touch a buffer.
	defer e.releaseBuffers()
	for _, s := range e.workers {
		s.drawBuffers()
		s.resetPartials()
	}
	start := time.Now()
	reps := make([]StepReport, len(e.workers))
	steps := make([]obs.ShardStep, len(e.workers))
	if e.traced {
		e.tracer.Emit(obs.RunStart{Vertices: e.numV, Workers: len(e.workers), Span: e.cfg.Span})
	}

	// Superstep 1 initialization: Init on every vertex, all active.
	e.superstp = 1
	e.parallel((*Shard).init)
	if err := e.canceled(); err != nil {
		return nil, err
	}
	if err := e.takeErr(); err != nil {
		return nil, err
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
		e.parallel((*Shard).compute)
		t1 := time.Now()
		// Messaging phase: exclusive message delivery after compute — unless
		// the compute phase aborted.
		if !e.aborted() {
			e.exchange(t0)
		}
		t2 := time.Now()

		// Cancellation wins over a concurrent fault. Either is returned
		// before the barrier merge, so a partial superstep's metrics are
		// never folded into the totals.
		if err := e.canceled(); err != nil {
			return nil, err
		}
		if err := e.takeErr(); err != nil {
			return nil, err
		}

		// Barrier: every shard reports to the barrier, in shard order — the
		// aggregates merge, the counts fold into the run's totals, the halt
		// rule is decided — and starts its partials over.
		for i, s := range e.workers {
			reps[i] = s.report()
			s.step.Span, s.step.Superstep, s.step.Shard = e.cfg.Span, e.superstp, s.id
			steps[i] = s.step
		}
		quiesced := e.barrier.Close(reps)
		for _, s := range e.workers {
			s.resetPartials()
		}
		t3 := time.Now()
		row := obs.NewClusterStep(e.cfg.Span, e.superstp, 0, t3.Sub(t0).Nanoseconds(), steps)

		end := e.barrier.SuperstepEnd(e.superstp, obs.Totals{ComputeNS: t1.Sub(t0).Nanoseconds(),
			MessagingNS: t2.Sub(t1).Nanoseconds(), BarrierNS: t3.Sub(t2).Nanoseconds()})
		e.series.Publish(end)
		e.series.SetPools(poolStats())
		e.skew.Set(row.SkewMilli)
		if e.traced {
			e.tracer.Emit(end)
			for _, st := range steps {
				e.tracer.Emit(st)
			}
			row.Shards = slices.Clone(steps)
			e.tracer.Emit(row)
		}
		e.superstp++
		if quiesced {
			break
		}
	}
	end := e.barrier.End(time.Since(start))
	e.series.Publish(end)
	e.series.SetPools(poolStats())
	if e.traced {
		e.tracer.Emit(end)
	}
	return &end, nil
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

// clearErr forgets the recorded failure: a stepped shard restored to a
// capture steps again.
func (e *Engine) clearErr() {
	e.errMu.Lock()
	e.runErr = nil
	e.hasErr.Store(false)
	e.errMu.Unlock()
}

// recoverAs records a panic escaping the call it is deferred in as the
// superstep's failure: a *VertexPanicError at vertex, −1 when no one
// vertex's program is to blame.
func (e *Engine) recoverAs(vertex int) {
	if r := recover(); r != nil {
		e.fail(&VertexPanicError{
			Vertex:    vertex,
			Superstep: e.superstp,
			Value:     r,
			Stack:     debug.Stack(),
		})
	}
}

// guardedCall runs one user-program invocation for a vertex, recording an
// escaping panic as the superstep failure; it reports whether fn completed
// normally.
func (e *Engine) guardedCall(vertex int, fn func()) (ok bool) {
	defer e.recoverAs(vertex)
	fn()
	return true
}

// step runs one phase of shard s. A panic escaping the phase itself (engine
// bugs, codec paths outside guardedCall) is recorded as the superstep's
// failure rather than killing the process.
func step(s *Shard, phase func(*Shard)) {
	defer s.eng.recoverAs(-1)
	phase(s)
}

// parallel steps every shard of the engine through phase, concurrently, and
// waits for all.
func (e *Engine) parallel(phase func(*Shard)) {
	var wg sync.WaitGroup
	wg.Add(len(e.workers))
	for _, s := range e.workers {
		go func() {
			defer wg.Done()
			step(s, phase)
		}()
	}
	wg.Wait()
}

// exchange moves all outbox batches to destination inboxes, applying the
// combiner across sources; each shard counts what it delivered. Over a
// Transport the cross-shard batches are shipped first. A shard waits from the
// end of its compute+ until delivery begins: compute+ plus wait is the wall
// time since the superstep's start, the same for every shard.
func (e *Engine) exchange(start time.Time) {
	if e.cfg.Transport != nil {
		e.parallel((*Shard).ship)
	}
	wall := time.Since(start).Nanoseconds()
	for _, s := range e.workers {
		s.step.WaitNS = wall - s.step.ComputeNS
	}
	e.parallel((*Shard).exchange)
}

// ship sends the shard's cross-shard batches — what Outbound encodes — over
// the Transport, once each: a failed Send fails the superstep. Shipping is
// part of the shard's compute+, as it is a cluster worker's.
func (s *Shard) ship() {
	e := s.eng
	phaseStart := time.Now()
	s.step.DirectBytes = 0
	for dst, batch := range s.outbound() {
		if dst == s.id {
			continue
		}
		if err := e.cfg.Transport.Send(s.id, dst, batch); err != nil {
			e.fail(fmt.Errorf("engine: send %d->%d: %w", s.id, dst, err))
		}
		s.step.DirectBytes += int64(len(batch))
	}
	s.step.PeerSendNS = time.Since(phaseStart).Nanoseconds()
	s.step.ComputeNS += s.step.PeerSendNS
}

// exchange is one shard's receive phase within Run, called directly by the
// alloc gates: at steady state it must not allocate.
func (s *Shard) exchange() {
	e := s.eng
	phaseStart := time.Now()
	var err error
	if e.cfg.Transport == nil {
		s.rep.Delivered, err = s.receive(len(e.workers)-1, s.stagePeer)
	} else {
		var batches [][]byte
		if batches, err = e.cfg.Transport.Recv(s.id); err == nil {
			s.rep.Delivered, err = s.receiveWire(batches)
		}
	}
	if err != nil {
		e.fail(err)
	}
	s.step.DeliverNS = time.Since(phaseStart).Nanoseconds()
}

// receive is a shard's receive phase, and the one routine that sets the
// order messages are delivered in, whatever carries the batches: the own
// outbox first, then peer(0) … peer(peers-1) ascending by source. The own
// outbox is the stage, stage(i, st) appends peer i's batch to it; each staged
// message is counted for its slot, which it activates (a message for a vertex
// another worker owns is a corrupt batch, never a delivery to the local vertex
// sharing its slot number); a stable counting sort over the sorted frontier
// places them, each slot's range in delivery order. The own outbox, which its
// sender fold (fold.go) left with one inline message per (Dst, When), is
// placed as it is; the combiner folds a peer's inline message into the first
// inline one placed for its vertex with the same interval. The stage's spill
// table becomes the inbox's. It returns the messages staged: those delivered,
// after each sender's fold.
func (s *Shard) receive(peers int, stage func(i int, st *msgSlab) error) (int64, error) {
	e, st := s.eng, s.outbox[s.id]
	defer st.reset()
	own := len(st.msgs)
	for i := 0; i < peers; i++ {
		if err := stage(i, st); err != nil {
			return 0, err
		}
	}
	for _, m := range st.msgs {
		dw, slot := e.owner(m.Dst)
		if dw != s.id {
			return 0, fmt.Errorf("engine: worker %d received a message for vertex %d, which worker %d owns: %w",
				s.id, m.Dst, dw, codec.ErrCorrupt)
		}
		s.activate(slot)
		s.end[slot]++
	}
	slices.Sort(s.frontier)
	var n int32
	for _, slot := range s.frontier {
		s.at[slot], s.end[slot], n = n, n, n+s.end[slot]
	}
	in, c := s.inbox, e.cfg.Combiner
	in.reset()
	in.msgs = slices.Grow(in.msgs, int(n))[:n]
	in.spill, st.spill = st.spill, in.spill
	for i, m := range st.msgs {
		slot := e.slot[m.Dst]
		k := s.end[slot]
		if c != nil && i >= own && m.Kind != codec.KindSpill {
			for k = s.at[slot]; k < s.end[slot]; k++ {
				if o := &in.msgs[k]; o.When == m.When && o.Kind != codec.KindSpill {
					*o = newMessage(o.Dst, o.When, c(o.Word(), m.Word()))
					break
				}
			}
		}
		if k == s.end[slot] {
			in.msgs[k] = m
			s.end[slot]++
		}
	}
	return int64(len(st.msgs)), nil
}

// received returns a slot's messages, nil when there are none, capped at
// its range: appending to them cannot reach the next slot's.
func (s *Shard) received(slot int) []Message {
	a, b := s.at[slot], s.end[slot]
	if a == b {
		return nil
	}
	return s.inbox.msgs[a:b:b]
}

// stagePeer stages the i-th peer's batch in process: the outbox slab that
// source shard filled for this one, handed over without encoding and emptied.
func (s *Shard) stagePeer(i int, st *msgSlab) error {
	if i >= s.id {
		i++
	}
	ob := s.eng.workers[i].outbox[s.id]
	st.appendSlab(ob)
	ob.reset()
	return nil
}

// receiveWire is receive over serialized batches — from a Transport, or
// handed to Deliver — each decoded straight into the stage.
func (s *Shard) receiveWire(batches [][]byte) (int64, error) {
	return s.receive(len(batches), func(i int, st *msgSlab) error {
		return s.eng.decodeBatchInto(st, batches[i])
	})
}
