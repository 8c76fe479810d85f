package engine

import (
	"slices"
	"sync"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
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
	w.drawBuffers()
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

// TestCheckpointRestoresFrontier is the rollback half, over shards stepped
// as the cluster steps them: they commit before superstep 3, run 3 and 4,
// and fail at 5, when the one active vertex panics; every shard restores its
// capture, whose inboxes lack the range the failed superstep started with,
// and delivers again. The superstep replayed first starts from the rebuilt,
// non-empty frontier, and the run ends in the fault-free result — which
// requires the restored frontiers and inbox ranges to be the captured ones.
func TestCheckpointRestoresFrontier(t *testing.T) {
	const n = 24
	cfg := Config{NumWorkers: 3, PayloadCodec: codec.Int64{}}
	clean := newFaultProgram(n)
	want := runStepped(t, n, clean, cfg, 0, nil)

	faulty := newFaultProgram(n)
	faulty.panicRunAt = 5
	var at3 []int
	m := runStepped(t, n, faulty, cfg, 3, func(step int, ss []*Shard) {
		if step == 3 {
			active := 0
			for _, s := range ss {
				active += len(s.frontier)
			}
			at3 = append(at3, active)
		}
	})
	if m.Recoveries != 1 || faulty.panicsFired != 1 {
		t.Fatalf("%d recoveries from %d panics, want 1 from 1", m.Recoveries, faulty.panicsFired)
	}
	if !slices.Equal(at3, []int{1, 1}) {
		t.Errorf("superstep 3 started from frontiers of %v vertices, want [1 1]: once, and once replayed", at3)
	}
	if ledger(m) != ledger(want) {
		t.Errorf("recovered run counted %v, fault-free %v", ledger(m), ledger(want))
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
		w.drawBuffers()
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

// scriptProgram sends what its script says — script[s][v] are the
// destinations vertex v sends to at superstep s — and records how many
// messages each vertex was handed at each superstep it ran, and any handed
// message addressed to another vertex. Each vertex appends to what it is
// handed, which must not reach the next one's messages. Vertex panicAt[1]
// panics the first time it runs superstep panicAt[0].
type scriptProgram struct {
	noSnapshot
	script  map[int]map[int][]int
	panicAt [2]int
	mu      sync.Mutex
	handed  map[[2]int]int
	foreign []Message
	panics  int
	tail    []Message
}

func (*scriptProgram) Init(*Context) {}

func (p *scriptProgram) Run(ctx *Context, msgs []Message) {
	s, v := ctx.Superstep(), ctx.Vertex()
	p.mu.Lock()
	p.handed[[2]int{s, v}] = len(msgs)
	for _, m := range msgs {
		if int(m.Dst) != v {
			p.foreign = append(p.foreign, m)
		}
	}
	p.tail = append(msgs, newMessage(-1, ival.Universe, codec.Word{}))
	boom := p.panicAt == [2]int{s, v} && p.panics == 0
	if boom {
		p.panics++
	}
	p.mu.Unlock()
	if boom {
		panic("injected")
	}
	for _, dst := range p.script[s][v] {
		ctx.Send(dst, ival.Universe, int64(v))
	}
}

// inboxVertices lists the vertices a capture of workers ws holds an inbox
// for.
func inboxVertices(t *testing.T, ws []*Shard, data []byte) []int {
	t.Helper()
	r := codec.NewReader(data[1:], ErrCheckpointCorrupt)
	r.Int("superstep")
	r.Field("snapshot")
	var got []int
	for _, w := range ws {
		n, prev := len(w.local), -1
		for k := r.Max("active count", uint64(n)); k > 0; k-- {
			readSlot(&r, "active slot", n, &prev)
		}
		prev = -1
		for k := r.Max("inbox count", uint64(n)); k > 0 && r.Err == nil; k-- {
			got = append(got, int(w.local[readSlot(&r, "inbox slot", n, &prev)]))
			r.Field("inbox batch")
		}
	}
	if err := r.Done(); err != nil {
		t.Fatalf("capture does not parse: %v", err)
	}
	return got
}

// TestStaleRangeNotDeliveredAgain: vertex 1 is handed a message at superstep
// 2 and none at 3, while its worker's other vertices are. At superstep 3 it
// must be handed nothing — it runs then only under ActivateAll — and the
// capture at the barrier before superstep 3 must hold no inbox for it: the
// compute phase empties each range it consumes, and a range left behind
// would be delivered again, pointing at whatever the next exchange placed
// there. The rollback row steps the shards as the cluster does: they commit
// before superstep 2, and superstep 3 fails at the first of the two vertices
// of worker 0's frontier, whose ranges stay behind; every shard restores its
// capture, which holds no inbox for either — they are delivered to at
// superstep 2 — and delivers again.
func TestStaleRangeNotDeliveredAgain(t *testing.T) {
	// Two workers: worker 1 owns vertices 1, 3, 5 and 7.
	script := map[int]map[int][]int{
		1: {0: {1, 3}, 2: {5, 5}, 4: {7}},
		2: {1: {4, 6}, 3: {5}, 5: {7, 7}, 7: {3}},
	}
	// The messages each vertex is handed at each superstep, and the inboxes
	// each barrier's capture holds.
	want := map[[2]int]int{{2, 1}: 1, {2, 3}: 1, {2, 5}: 2, {2, 7}: 1, {3, 3}: 1, {3, 4}: 1, {3, 5}: 1, {3, 6}: 1, {3, 7}: 2}
	wantInboxes := map[int][]int{2: {1, 3, 5, 7}, 3: {3, 4, 5, 6, 7}}
	rows := []struct {
		name     string
		cfg      Config
		stepped  bool
		pnc      [2]int
		recovers int
	}{
		{"plain", Config{}, false, [2]int{}, 0},
		{"activate-all", Config{ActivateAll: true, MaxSupersteps: 4}, false, [2]int{}, 0},
		{"rollback", Config{}, true, [2]int{3, 4}, 1},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			p := &scriptProgram{script: script, panicAt: row.pnc, handed: map[[2]int]int{}}
			captures := map[int][]int{}
			cfg := row.cfg
			cfg.NumWorkers, cfg.PayloadCodec = 2, codec.Int64{}
			var m *Metrics
			if row.stepped {
				m = runStepped(t, 8, p, cfg, 2, func(step int, ss []*Shard) {
					captures[step] = nil
					for _, s := range ss {
						data, err := s.CaptureDurable()
						if err != nil {
							t.Fatal(err)
						}
						captures[step] = append(captures[step], inboxVertices(t, s.eng.workers[s.id:s.id+1], data)...)
					}
					slices.Sort(captures[step])
				})
			} else {
				var e *Engine
				cfg.Master = masterFunc(func(mc *MasterControl) {
					data, err := mc.Capture()
					if err != nil {
						t.Fatal(err)
					}
					captures[mc.Superstep()] = inboxVertices(t, e.workers, data)
					slices.Sort(captures[mc.Superstep()])
				})
				var err error
				if e, err = New(8, p, cfg); err != nil {
					t.Fatal(err)
				}
				if m, err = e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			if len(p.foreign) != 0 {
				t.Errorf("vertices were handed messages for others: %v", p.foreign)
			}
			if p.panics != row.recovers || m.Recoveries != row.recovers {
				t.Fatalf("%d panics injected, %d recoveries, want %d of each", p.panics, m.Recoveries, row.recovers)
			}
			for k, n := range p.handed {
				if n != want[k] {
					t.Errorf("vertex %d was handed %d messages at superstep %d, want %d", k[1], n, k[0], want[k])
				}
			}
			if _, ran := p.handed[[2]int{3, 1}]; ran != row.cfg.ActivateAll {
				t.Errorf("vertex 1 ran at superstep 3: %v, want %v", ran, row.cfg.ActivateAll)
			}
			for s, vs := range wantInboxes {
				if !slices.Equal(captures[s], vs) {
					t.Errorf("the capture before superstep %d holds inboxes for %v, want %v", s, captures[s], vs)
				}
			}
		})
	}
}

// masterFunc is a Master that runs fn at every barrier.
type masterFunc func(mc *MasterControl)

func (f masterFunc) BeforeSuperstep(mc *MasterControl) { f(mc) }
