package engine

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// hashProgram is deliberately order-sensitive: each superstep a vertex folds
// its inbox into a running hash with a non-commutative mix and forwards the
// hash to its neighbors. Any scheduler change that reorders message emission
// or delivery — across chunks, steals, or partitions — diverges the final
// hashes, so equality below means the message streams are identical, not
// merely equivalent.
type hashProgram struct {
	adj  [][]int
	mu   sync.Mutex
	hash []uint64
}

func (p *hashProgram) Init(ctx *Context) {
	v := ctx.Vertex()
	p.mu.Lock()
	p.hash[v] = uint64(v)*0x9e3779b97f4a7c15 + 1
	p.mu.Unlock()
}

func (p *hashProgram) Run(ctx *Context, msgs []Message) {
	ctx.AddComputeCalls(1)
	v := ctx.Vertex()
	p.mu.Lock()
	h := p.hash[v]
	for _, m := range msgs {
		h = h*1099511628211 + uint64(m.Word().Int())
	}
	p.hash[v] = h
	p.mu.Unlock()
	for _, n := range p.adj[v] {
		ctx.Send(n, ival.Universe, int64(h>>1))
	}
}

// skewedAdj builds a seeded power-law-ish adjacency: a few hub vertices own
// most of the out-edges, the shape that makes static per-worker load uneven.
func skewedAdj(n, baseDeg int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int, n)
	for v := range adj {
		deg := baseDeg
		if v < n/16+1 {
			deg = baseDeg * 12 // hubs
		}
		for i := 0; i < deg; i++ {
			adj[v] = append(adj[v], rng.Intn(n))
		}
	}
	return adj
}

func runHash(t *testing.T, n, supersteps int, cfg Config) ([]uint64, *Metrics) {
	t.Helper()
	p := &hashProgram{adj: skewedAdj(n, 3, 42), hash: make([]uint64, n)}
	cfg.MaxSupersteps = supersteps
	e, err := New(n, p, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return p.hash, m
}

// TestStealDeterminismMatrix is the engine half of the determinism
// acceptance: with stealing {on, off} × chunk {1, 3, 64} × several worker
// counts, an order-sensitive program must produce hashes identical to the
// static schedule, and the run's message/byte/call totals must match
// exactly.
func TestStealDeterminismMatrix(t *testing.T) {
	const n, steps = 96, 6
	for _, workers := range []int{1, 2, 4, 7} {
		base, bm := runHash(t, n, steps, Config{NumWorkers: workers})
		for _, chunk := range []int{1, 3, 64} {
			got, gm := runHash(t, n, steps, Config{NumWorkers: workers, Steal: true, StealChunk: chunk})
			for v := range base {
				if got[v] != base[v] {
					t.Fatalf("workers=%d chunk=%d: hash[%d] = %#x, want %#x (static)",
						workers, chunk, v, got[v], base[v])
				}
			}
			if gm.Messages != bm.Messages || gm.MessageBytes != bm.MessageBytes ||
				gm.ComputeCalls != bm.ComputeCalls || gm.Supersteps != bm.Supersteps {
				t.Fatalf("workers=%d chunk=%d: metrics diverged: got {msgs %d bytes %d calls %d steps %d}, want {%d %d %d %d}",
					workers, chunk, gm.Messages, gm.MessageBytes, gm.ComputeCalls, gm.Supersteps,
					bm.Messages, bm.MessageBytes, bm.ComputeCalls, bm.Supersteps)
			}
		}
	}
}

// TestFrontierTracksFlags pins the frontier/bitmap invariant the scheduler
// rests on: activation appends exactly the false→true transitions, the
// schedule is the sorted frontier, and rebuildFrontier recovers it from the
// flags alone (the checkpoint-restore path).
func TestFrontierTracksFlags(t *testing.T) {
	e, err := New(9, idleProgram{}, Config{NumWorkers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := e.workers[0]
	for _, slot := range []int{7, 2, 5, 2, 7} {
		w.activate(slot)
	}
	if got, want := len(w.frontier), 3; got != want {
		t.Fatalf("frontier len = %d, want %d (dedup through the bitmap)", got, want)
	}
	if e.countActive() != 3 {
		t.Fatalf("countActive = %d, want 3", e.countActive())
	}
	if !e.anyActive() {
		t.Fatal("anyActive = false with a populated frontier")
	}
	w.prepareSched()
	for i, want := range []int32{2, 5, 7} {
		if w.sched[i] != want {
			t.Fatalf("sched[%d] = %d, want %d (sorted ascending)", i, w.sched[i], want)
		}
	}
	w.finishSched()
	if len(w.frontier) != 0 || e.anyActive() {
		t.Fatal("finishSched must reset the frontier")
	}
	// Flags survive the reset (compute clears them per-slot); rebuild must
	// recover the same schedule from them, as checkpoint restore does.
	w.rebuildFrontier()
	for i, want := range []int32{2, 5, 7} {
		if w.frontier[i] != want {
			t.Fatalf("rebuilt frontier[%d] = %d, want %d", i, w.frontier[i], want)
		}
	}
}

// gateProgram makes the owner of every vertex wait for a thief: a vertex run
// by worker 0 blocks until some vertex has run on another worker — which, all
// vertices being worker 0's, can only be a stolen one — or until giveUp fires
// and opens the gate for good, so a scheduler that never steals fails the
// assertion instead of hanging.
type gateProgram struct {
	stolen chan struct{}
	open   sync.Once
	giveUp <-chan time.Time
}

func (p *gateProgram) Init(*Context) {}

func (p *gateProgram) Run(ctx *Context, msgs []Message) {
	if ctx.Worker() != 0 {
		p.open.Do(func() { close(p.stolen) })
		return
	}
	select {
	case <-p.stolen:
	case <-p.giveUp:
		p.open.Do(func() { close(p.stolen) })
	}
}

// TestStealsHappenAndAreCounted forces total skew — every vertex on worker 0
// of two, chunk size 1, worker 0 held on its first vertex until worker 1 has
// claimed a chunk — and requires the idle worker to have stolen at least one
// chunk, with the registry counter and trace totals agreeing.
func TestStealsHappenAndAreCounted(t *testing.T) {
	const n = 64
	reg := obs.NewRegistry()
	rec := &obs.Recorder{}
	giveUp := time.Minute
	if d, ok := t.Deadline(); ok {
		giveUp = time.Until(d) / 2
	}
	e, err := New(n, &gateProgram{stolen: make(chan struct{}), giveUp: time.After(giveUp)}, Config{
		NumWorkers:    2,
		Steal:         true,
		StealChunk:    1,
		MaxSupersteps: 1,
		Partitioner:   func(v, workers int) int { return 0 },
		Registry:      reg,
		Tracer:        rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	steals := reg.Counter(obs.CSteals).Load()
	if steals == 0 {
		t.Fatal("no steals recorded: worker 1 sat idle next to 64 one-slot chunks on worker 0")
	}
	var traced int64
	for _, ev := range rec.Events() {
		if se, ok := ev.(obs.SuperstepEnd); ok {
			traced += se.Steals
		}
	}
	if traced != steals {
		t.Fatalf("superstep_end steals sum = %d, registry counter = %d", traced, steals)
	}
	if g := reg.Gauge(obs.GActiveVertices); g == nil {
		t.Fatal("active_vertices gauge not published")
	}
}

// TestStealChunkValidation: a negative chunk size is a config error.
func TestStealChunkValidation(t *testing.T) {
	_, err := New(4, idleProgram{}, Config{NumWorkers: 2, Steal: true, StealChunk: -1})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// TestCheckpointRestoresFrontierUnderStealing is the rollback half: a run
// with stealing on, checkpointing every 2 supersteps and one injected panic
// must replay to exactly the fault-free static result — which requires the
// restored frontiers to match the restored active flags bit for bit.
func TestCheckpointRestoresFrontierUnderStealing(t *testing.T) {
	const n = 24
	clean := newFaultProgram(n)
	e, err := New(n, clean, Config{NumWorkers: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("clean Run: %v", err)
	}

	faulty := newFaultProgram(n)
	faulty.panicRunAt = 5
	e2, err := New(n, faulty, Config{
		NumWorkers:      3,
		Steal:           true,
		StealChunk:      2,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := e2.Run()
	if err != nil {
		t.Fatalf("faulty Run: %v", err)
	}
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries)
	}
	for v := range clean.dist {
		if faulty.dist[v] != clean.dist[v] {
			t.Fatalf("dist[%d] = %d after recovery, want %d (fault-free static)",
				v, faulty.dist[v], clean.dist[v])
		}
	}
}

// selfSendProgram keeps a steady-state frontier alive: every executed vertex
// re-sends one pre-boxed message to itself, so each superstep reactivates
// exactly the same slots. Used only by the scheduler alloc gate.
type selfSendProgram struct{ val any }

func (selfSendProgram) Init(*Context) {}

func (p selfSendProgram) Run(ctx *Context, msgs []Message) {
	ctx.Send(ctx.Vertex(), ival.From(3), p.val)
}

// steadySchedulerStep builds one synchronous full superstep — frontier
// scheduling (static or chunked+stolen), compute with self-sends, lane
// merge, and local exchange — warmed past every grow-only buffer's working
// size.
func steadySchedulerStep(t testing.TB, cfg Config) func() {
	t.Helper()
	cfg.PayloadCodec = codec.Int64{}
	e, err := New(16, selfSendProgram{val: int64(7)}, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, w := range e.workers {
		w.drawOutboxes()
		for slot := range w.local {
			w.activate(slot)
		}
	}
	t.Cleanup(e.releaseBuffers)
	step := func() {
		if e.stealOn {
			for _, w := range e.workers {
				w.prepareChunks()
			}
			// Synchronous stand-in for the parallel phase: the first worker
			// drains its own deque and then steals everything else, so both
			// the own-claim and the steal path are measured.
			for _, w := range e.workers {
				w.runChunks()
			}
			for _, w := range e.workers {
				w.mergeChunks()
			}
		} else {
			for _, w := range e.workers {
				w.computeStatic()
			}
		}
		for _, w := range e.workers {
			w.exchangeLocal()
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	return step
}

// TestSchedulerNoAllocsSteadyState extends the PR 4 allocation discipline to
// the scheduler: a steady-state superstep through the dense frontier — and
// through chunk preparation, stealing and lane merging when enabled — must
// not allocate.
func TestSchedulerNoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: sync.Pool drops items at random under the race detector")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{name: "static-frontier", cfg: Config{NumWorkers: 2}},
		{name: "steal-chunk1", cfg: Config{NumWorkers: 2, Steal: true, StealChunk: 1}},
		{name: "steal-chunk4", cfg: Config{NumWorkers: 2, Steal: true, StealChunk: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			step := steadySchedulerStep(t, tc.cfg)
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Errorf("steady-state scheduler superstep allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestPartitionBalanced pins the greedy bin-packing: deterministic output,
// heaviest vertices spread across workers, and a load spread far tighter
// than modulo hashing achieves on the same weights.
func TestPartitionBalanced(t *testing.T) {
	weights := []int64{1000, 0, 0, 0, 900, 0, 0, 0, 800, 0, 0, 0} // hubs at 0,4,8: modulo(4) piles them onto worker 0
	const workers = 4
	part := PartitionBalanced(weights)
	assign := make([]int, len(weights))
	for v := range weights {
		assign[v] = part(v, workers)
		if assign[v] < 0 || assign[v] >= workers {
			t.Fatalf("assign[%d] = %d out of range", v, assign[v])
		}
	}
	// Deterministic on re-query.
	for v := range weights {
		if part(v, workers) != assign[v] {
			t.Fatalf("assignment not stable for vertex %d", v)
		}
	}
	load := make([]int64, workers)
	for v := range weights {
		load[assign[v]] += weights[v]
	}
	var max, min int64 = 0, 1 << 62
	for _, l := range load {
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
	}
	// Greedy LPT on {1000,900,800,0...} over 4 workers: one hub per worker,
	// max load 1000, min 0 is fine — but modulo would put all 2700 on one.
	if max != 1000 {
		t.Fatalf("max worker load = %d, want 1000 (one hub per worker)", max)
	}
	// Vertices outside the weight slice fall back to hashing.
	if got := part(len(weights)+3, workers); got != (len(weights)+3)%workers {
		t.Fatalf("out-of-range vertex assigned %d, want modulo fallback", got)
	}
}
