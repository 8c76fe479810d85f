package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// distProgram is a BFS-level propagation program over a static adjacency
// list: vertex 0 starts at level 0, everyone adopts 1+min(neighbor levels).
type distProgram struct {
	adj  [][]int
	mu   sync.Mutex
	dist []int64
}

func (p *distProgram) Init(ctx *Context) {
	v := ctx.Vertex()
	p.mu.Lock()
	p.dist[v] = 1 << 30
	p.mu.Unlock()
}

func (p *distProgram) Run(ctx *Context, msgs []Message) {
	ctx.AddComputeCalls(1)
	v := ctx.Vertex()
	best := int64(1 << 30)
	if ctx.Superstep() == 1 && v == 0 {
		best = 0
	}
	for _, m := range msgs {
		if d := m.Word().Int(); d < best {
			best = d
		}
	}
	p.mu.Lock()
	cur := p.dist[v]
	if best < cur {
		p.dist[v] = best
	}
	p.mu.Unlock()
	if best < cur {
		for _, n := range p.adj[v] {
			ctx.Send(n, ival.Universe, best+1)
		}
	}
}

func ring(n int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		adj[i] = []int{(i + 1) % n}
	}
	return adj
}

func TestEngineBFSRing(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		n := 10
		p := &distProgram{adj: ring(n), dist: make([]int64, n)}
		e, err := New(n, p, Config{NumWorkers: workers})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for i := 0; i < n; i++ {
			if p.dist[i] != int64(i) {
				t.Fatalf("workers=%d: dist[%d] = %d, want %d", workers, i, p.dist[i], i)
			}
		}
		// Directed ring: n supersteps of propagation + 1 to drain.
		if m.Supersteps != n+1 {
			t.Errorf("workers=%d: supersteps = %d, want %d", workers, m.Supersteps, n+1)
		}
		if m.Messages != int64(n) {
			t.Errorf("workers=%d: messages = %d, want %d", workers, m.Messages, n)
		}
		if m.ComputeCalls < int64(n) {
			t.Errorf("workers=%d: compute calls = %d, want >= %d", workers, m.ComputeCalls, n)
		}
		if m.MessageBytes <= 0 {
			t.Errorf("workers=%d: message bytes not accounted", workers)
		}
	}
}

func TestEngineHaltsWithNoMessages(t *testing.T) {
	p := &distProgram{adj: make([][]int, 3), dist: make([]int64, 3)}
	e, _ := New(3, p, Config{NumWorkers: 2})
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Supersteps != 1 {
		t.Errorf("supersteps = %d, want 1 (no edges, nothing to do)", m.Supersteps)
	}
}

// countProgram counts Run invocations per superstep and always sends to self.
type countProgram struct {
	mu    sync.Mutex
	runs  int
	limit int
}

func (p *countProgram) Init(*Context) {}
func (p *countProgram) Run(ctx *Context, msgs []Message) {
	p.mu.Lock()
	p.runs++
	p.mu.Unlock()
	if ctx.Superstep() < p.limit {
		ctx.Send(ctx.Vertex(), ival.Universe, int64(1))
	}
}

func TestMaxSupersteps(t *testing.T) {
	p := &countProgram{limit: 1 << 30}
	e, _ := New(4, p, Config{NumWorkers: 2, MaxSupersteps: 5})
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Supersteps != 5 {
		t.Errorf("supersteps = %d, want 5", m.Supersteps)
	}
}

// TestActivateAllRequiresBound: with every vertex kept active and messaging
// itself, nothing but MaxSupersteps or a master ends a run — so a
// configuration with neither is refused when the engine is built, not left
// to run until something else stops it.
func TestActivateAllRequiresBound(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	p := &countProgram{limit: 1 << 30}
	e, err := New(2, p, Config{NumWorkers: 1, ActivateAll: true, Context: ctx})
	if err == nil {
		_, err = e.Run()
	}
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("want ErrBadConfig from New, got %v after %d vertex runs", err, p.runs)
	}
	if _, err := New(2, p, Config{NumWorkers: 1, ActivateAll: true, Master: &haltMaster{}}); err != nil {
		t.Errorf("a master may end an ActivateAll run: %v", err)
	}
	// With MaxSupersteps it must run every vertex every superstep.
	p = &countProgram{limit: 0}
	e, _ = New(3, p, Config{NumWorkers: 2, ActivateAll: true, MaxSupersteps: 4})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.runs != 3*4 {
		t.Errorf("runs = %d, want 12", p.runs)
	}
}

// combineProgram sends k messages to vertex 0 and records how many arrive.
type combineProgram struct {
	mu       sync.Mutex
	received []int64
}

func (p *combineProgram) Init(*Context) {}
func (p *combineProgram) Run(ctx *Context, msgs []Message) {
	if ctx.Superstep() == 1 {
		ctx.Send(0, ival.New(0, 5), int64(ctx.Vertex()))
		ctx.Send(0, ival.New(5, 9), int64(ctx.Vertex()))
		return
	}
	if ctx.Vertex() == 0 {
		p.mu.Lock()
		for _, m := range msgs {
			p.received = append(p.received, m.Word().Int())
		}
		p.mu.Unlock()
	}
}

func TestReceiverSideCombiner(t *testing.T) {
	p := &combineProgram{}
	sum := Combiner(func(a, b codec.Word) codec.Word { return codec.IntWord(a.Int() + b.Int()) })
	e, _ := New(4, p, Config{NumWorkers: 2, Combiner: sum})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 4 senders × 2 intervals combine down to 2 messages of value 0+1+2+3.
	if len(p.received) != 2 {
		t.Fatalf("received %d messages, want 2 (combined per interval): %v", len(p.received), p.received)
	}
	if p.received[0]+p.received[1] != 12 {
		t.Errorf("combined sum = %d, want 12", p.received[0]+p.received[1])
	}
}

// aggProgram contributes 1 from every vertex each superstep and keeps every
// vertex active for three.
type aggProgram struct{}

func (aggProgram) Init(*Context) {}
func (aggProgram) Run(ctx *Context, msgs []Message) {
	ctx.Aggregate("sum", codec.IntWord(1))
	if ctx.Superstep() < 3 {
		ctx.Send(ctx.Vertex(), ival.Universe, nil)
	}
}

// sumMaster records, before every superstep after the first, the bits of the
// "sum" aggregate merged at the barrier before it.
type sumMaster struct{ seen []uint64 }

func (m *sumMaster) BeforeSuperstep(mc *MasterControl) {
	if mc.Superstep() > 1 {
		m.seen = append(m.seen, mc.AggValue("sum").A)
	}
}

func TestAggregators(t *testing.T) {
	m := &sumMaster{}
	e, _ := New(5, aggProgram{}, Config{NumWorkers: 3, Master: m, Aggregators: map[string]*Aggregator{"sum": SumInt64()}})
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Superstep 2 sees the sum from superstep 1 (5 vertices), superstep 3
	// sees superstep 2's (5 again).
	if !slices.Equal(m.seen, []uint64{5, 5}) {
		t.Errorf("aggregate history = %v, want [5 5]", m.seen)
	}
}

// floatSum sums float words. Float addition is not associative, so what it
// merges shows the order it folded in.
func floatSum() *Aggregator {
	return NewAggregator(codec.FloatWord(0), func(a, b codec.Word) codec.Word { return codec.FloatWord(a.Float() + b.Float()) })
}

// cancellingProgram contributes 1e16, -1e16, 1 and 1 to "sum" from vertices
// 0, 1, 2 and 3 mod 4: the small terms survive or vanish by fold order.
type cancellingProgram struct{ noSnapshot }

func (cancellingProgram) Init(*Context) {}
func (cancellingProgram) Run(ctx *Context, _ []Message) {
	ctx.Aggregate("sum", codec.FloatWord([4]float64{1e16, -1e16, 1, 1}[ctx.Vertex()%4]))
}

// TestAggregateFoldOrder: each worker folds its own vertices' contributions
// in the order they compute and the barrier folds the workers' partials in
// ascending worker order, so a float sum merges to one bit pattern run after
// run, with as many threads as workers — and to the one three shards stepped
// through a barrier of their own merge to.
func TestAggregateFoldOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, workers, steps = 4000, 3, 5
	cfg := Config{NumWorkers: workers, ActivateAll: true, MaxSupersteps: steps, PayloadCodec: codec.Float64{}}
	cfg.Aggregators = map[string]*Aggregator{"sum": floatSum()}
	run := func() []uint64 {
		m := &sumMaster{}
		c := cfg
		c.Master = m
		e, err := New(n, cancellingProgram{}, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return m.seen
	}
	want := run()
	if len(want) != steps-1 {
		t.Fatalf("the master saw %d merged values, want %d", len(want), steps-1)
	}
	for i := 1; i < 20; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d merged %x, run 0 %x", i, got, want)
		}
	}

	m := &sumMaster{}
	c := cfg
	c.Master = m
	b, err := NewBarrier(c)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, workers)
	for i := range shards {
		if shards[i], err = NewShard(n, cancellingProgram{}, c, i); err != nil {
			t.Fatal(err)
		}
		defer shards[i].Close()
		if err := shards[i].Init(); err != nil {
			t.Fatal(err)
		}
	}
	for step := 1; b.Open(step); step++ {
		reps := make([]StepReport, workers)
		for i, s := range shards {
			if err := s.Compute(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Outbound(); err != nil {
				t.Fatal(err)
			}
			// Nothing is sent: every peer's batch is the empty one.
			if _, err := s.Deliver(slices.Repeat([][]byte{{0}}, workers-1)); err != nil {
				t.Fatal(err)
			}
			reps[i] = s.Barrier()
		}
		b.Close(reps)
	}
	if !slices.Equal(m.seen, want) {
		t.Errorf("stepped shards merged %x, Run %x", m.seen, want)
	}
}

// haltMaster halts before superstep 3.
type haltMaster struct{ phases []int }

func (m *haltMaster) BeforeSuperstep(mc *MasterControl) {
	m.phases = append(m.phases, mc.Phase())
	mc.SetPhase(mc.Superstep())
	if mc.Superstep() >= 3 {
		mc.Halt()
	}
}

func TestMasterHaltAndPhases(t *testing.T) {
	p := &countProgram{limit: 1 << 30}
	master := &haltMaster{}
	rec := &obs.Recorder{}
	e, _ := New(2, p, Config{NumWorkers: 1, Master: master, Tracer: rec})
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Supersteps != 2 {
		t.Errorf("supersteps = %d, want 2", m.Supersteps)
	}
	if evs := rec.Events(); !evs[len(evs)-1].(obs.RunEnd).Halted {
		t.Errorf("run_end should report the master's halt")
	}
	if len(master.phases) != 3 || master.phases[0] != 0 || master.phases[1] != 1 || master.phases[2] != 2 {
		t.Errorf("phases = %v", master.phases)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(0, &countProgram{}, Config{}); !errors.Is(err, ErrNoVertices) {
		t.Errorf("want ErrNoVertices, got %v", err)
	}
	if _, err := New(3, nil, Config{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("want ErrBadConfig for nil program, got %v", err)
	}
	// More workers than vertices is clamped, not an error.
	e, err := New(2, &countProgram{}, Config{NumWorkers: 16})
	if err != nil || len(e.workers) != 2 {
		t.Errorf("worker clamp failed: %v %d", err, len(e.workers))
	}
}

func TestCustomPartitioner(t *testing.T) {
	// Range partitioner: first half to worker 0, rest to worker 1. Results
	// must be identical to hash partitioning.
	n := 10
	rangePart := func(v, workers int) int {
		if v < n/2 {
			return 0
		}
		return 1
	}
	p := &distProgram{adj: ring(n), dist: make([]int64, n)}
	e, err := New(n, p, Config{NumWorkers: 2, Partitioner: rangePart})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if p.dist[i] != int64(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, p.dist[i], i)
		}
	}
	// An out-of-range partitioner is rejected.
	bad := func(v, workers int) int { return workers }
	if _, err := New(n, p, Config{NumWorkers: 2, Partitioner: bad}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

func TestMetricsTimeSplit(t *testing.T) {
	n := 64
	p := &distProgram{adj: ring(n), dist: make([]int64, n)}
	e, _ := New(n, p, Config{NumWorkers: 4})
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.ComputePlusTime <= 0 || m.Makespan <= 0 {
		t.Errorf("time metrics not populated: %v", m)
	}
	if m.ComputePlusTime+m.MessagingTime+m.BarrierTime > m.Makespan {
		t.Errorf("phase times exceed makespan: %v", m)
	}
	// Metrics accumulate across Add.
	var sum Metrics
	sum.Add(m)
	sum.Add(m)
	if sum.Messages != 2*m.Messages || sum.Supersteps != 2*m.Supersteps {
		t.Errorf("Add accumulation wrong: %v", sum)
	}
	if sum.String() == "" {
		t.Errorf("String should render")
	}
}

func TestAggregatorConstructors(t *testing.T) {
	fold := func(a *Aggregator, vs ...int64) codec.Word {
		w := a.identity
		for _, v := range vs {
			w = a.reduce(w, codec.IntWord(v))
		}
		return w
	}
	if got := fold(SumInt64(), 7, 3); got != codec.IntWord(10) {
		t.Errorf("SumInt64 of 7, 3 = %v, want 10", got)
	}
	if got := fold(SumInt64()); got != codec.IntWord(0) {
		t.Errorf("SumInt64 identity = %v, want 0", got)
	}
	if got := fold(BoolOr()); got != codec.IntWord(0) {
		t.Errorf("BoolOr identity = %v, want 0 (false)", got)
	}
	if got := fold(BoolOr(), 1, 0); got != codec.IntWord(1) {
		t.Errorf("BoolOr of true, false = %v, want 1 (true)", got)
	}
}
