package engine

import (
	"errors"
	"sync"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
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

func TestActivateAllRequiresBound(t *testing.T) {
	p := &countProgram{limit: 0}
	e, _ := New(2, p, Config{NumWorkers: 1, ActivateAll: true})
	if _, err := e.Run(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("want ErrBadConfig, got %v", err)
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

// aggProgram contributes its vertex id each superstep.
type aggProgram struct {
	mu   sync.Mutex
	seen []int64 // aggregate value observed at each superstep > 1
}

func (p *aggProgram) Init(*Context) {}
func (p *aggProgram) Run(ctx *Context, msgs []Message) {
	ctx.Aggregate("sum", int64(1))
	if ctx.Superstep() > 1 && ctx.Vertex() == 0 {
		p.mu.Lock()
		p.seen = append(p.seen, ctx.AggValue("sum").(int64))
		p.mu.Unlock()
	}
	if ctx.Superstep() < 3 {
		ctx.Send(ctx.Vertex(), ival.Universe, nil)
	}
}

func TestAggregators(t *testing.T) {
	p := &aggProgram{}
	e, _ := New(5, p, Config{NumWorkers: 3})
	e.RegisterAggregator("sum", SumInt64())
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Superstep 2 sees the sum from superstep 1 (5 vertices), superstep 3
	// sees superstep 2's (5 again).
	if len(p.seen) != 2 || p.seen[0] != 5 || p.seen[1] != 5 {
		t.Errorf("aggregate history = %v, want [5 5]", p.seen)
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
	e, _ := New(2, p, Config{NumWorkers: 1, Master: master})
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Supersteps != 2 {
		t.Errorf("supersteps = %d, want 2", m.Supersteps)
	}
	if !e.Halted() {
		t.Errorf("engine should report master halt")
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
	min := MinInt64(99)
	min.accumulate(int64(7))
	min.accumulate(int64(3))
	if v := min.drain().(int64); v != 3 {
		t.Errorf("MinInt64 drain = %d, want 3", v)
	}
	if v := min.drain().(int64); v != 99 {
		t.Errorf("MinInt64 identity = %d, want 99", v)
	}
	sum := SumFloat64()
	sum.accumulate(1.5)
	sum.accumulate(2.25)
	if v := sum.drain().(float64); v != 3.75 {
		t.Errorf("SumFloat64 drain = %v", v)
	}
	or := BoolOr()
	if v := or.drain().(bool); v {
		t.Errorf("BoolOr identity should be false")
	}
	or.accumulate(true)
	or.accumulate(false)
	if v := or.drain().(bool); !v {
		t.Errorf("BoolOr drain should be true")
	}
}
