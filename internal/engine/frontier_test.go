package engine

import (
	"slices"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// TestFrontierTracksFlags pins the frontier/bitmap invariant the compute
// phase rests on: activation appends exactly the false→true transitions, the
// schedule is the sorted frontier, and a restore re-activates a capture's
// active set — frontier and flags alike, whatever they held before.
func TestFrontierTracksFlags(t *testing.T) {
	e, err := New(9, snapIdleProgram{}, Config{NumWorkers: 1, PayloadCodec: codec.Int64{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := e.workers[0]
	w.drawOutboxes()
	t.Cleanup(e.releaseBuffers)
	for _, slot := range []int{7, 2, 5, 2, 7} {
		w.activate(slot)
	}
	if got, want := len(w.frontier), 3; got != want {
		t.Fatalf("frontier len = %d, want %d (dedup through the bitmap)", got, want)
	}
	if e.countActive() != 3 {
		t.Fatalf("countActive = %d, want 3", e.countActive())
	}
	ckpt, err := e.capture(nil, e.workers)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	sched := w.prepareSched()
	for i, want := range []int32{2, 5, 7} {
		if sched[i] != want {
			t.Fatalf("sched[%d] = %d, want %d (sorted ascending)", i, sched[i], want)
		}
	}
	w.finishSched()
	if len(w.frontier) != 0 || e.countActive() != 0 {
		t.Fatal("finishSched must reset the frontier")
	}
	w.activate(1)
	if err := e.restore(ckpt, e.workers); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !slices.Equal(w.frontier, []int32{2, 5, 7}) {
		t.Fatalf("restored frontier = %v, want [2 5 7]", w.frontier)
	}
	for slot, a := range w.active {
		if want := slot == 2 || slot == 5 || slot == 7; a != want {
			t.Fatalf("restored flag of slot %d = %v, want %v", slot, a, want)
		}
	}
}

// TestCheckpointRestoresFrontier is the rollback half: a run checkpointing
// every 2 supersteps with one injected panic restores a non-empty frontier
// and must replay to exactly the fault-free result — which requires the
// restored frontiers to match the restored active flags bit for bit.
func TestCheckpointRestoresFrontier(t *testing.T) {
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
	rec := &obs.Recorder{}
	e2, err := New(n, faulty, Config{NumWorkers: 3, PayloadCodec: codec.Int64{}, CheckpointEvery: 2, Tracer: rec})
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
	// The superstep replayed first starts from the rebuilt frontier.
	events := rec.Events()
	for i, ev := range events {
		if r, ok := ev.(obs.Recovery); ok {
			next, ok := events[i+1].(obs.SuperstepStart)
			if !ok || next.Superstep != r.ResumeAt || next.Active == 0 {
				t.Fatalf("after %+v the trace continues with %+v; want superstep %d starting from a non-empty frontier",
					r, events[i+1], r.ResumeAt)
			}
		}
	}
	for v := range clean.dist {
		if faulty.dist[v] != clean.dist[v] {
			t.Fatalf("dist[%d] = %d after recovery, want %d (fault-free)",
				v, faulty.dist[v], clean.dist[v])
		}
	}
}

// selfSendProgram keeps a steady-state frontier alive: every executed vertex
// re-sends one pre-boxed message to itself, so each superstep reactivates
// exactly the same slots. Used only by the compute-phase alloc gate.
type selfSendProgram struct{ val any }

func (selfSendProgram) Init(*Context) {}

func (p selfSendProgram) Run(ctx *Context, msgs []Message) {
	ctx.Send(ctx.Vertex(), ival.From(3), p.val)
}

// TestSchedulerNoAllocsSteadyState extends the hot-path allocation
// discipline to the compute phase: a steady-state superstep — sorting the
// dense frontier, compute with self-sends, local exchange — warmed past every
// grow-only buffer's working size, must not allocate.
func TestSchedulerNoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: sync.Pool drops items at random under the race detector")
	}
	e, err := New(16, selfSendProgram{val: int64(7)}, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}})
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
		for _, w := range e.workers {
			w.compute()
		}
		for _, w := range e.workers {
			w.exchange()
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("steady-state superstep allocates %.1f times, want 0", allocs)
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
