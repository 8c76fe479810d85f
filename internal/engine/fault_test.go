package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// faultProgram propagates BFS levels around a directed ring and injects
// faults on demand: a panic in Init, panics in Run, or nothing.
type faultProgram struct {
	n           int
	mu          sync.Mutex
	dist        []int64
	panicInit   int // vertex to panic in Init, -1 for never
	panicRunAt  int // superstep to panic in Run, 0 for never
	panicTimes  int // how many times it panics there, replays included
	panicsFired int
}

func newFaultProgram(n int) *faultProgram {
	return &faultProgram{n: n, dist: make([]int64, n), panicInit: -1, panicTimes: 1}
}

func (p *faultProgram) Init(ctx *Context) {
	if ctx.Vertex() == p.panicInit {
		panic("injected init panic")
	}
	p.mu.Lock()
	p.dist[ctx.Vertex()] = 1 << 30
	p.mu.Unlock()
}

func (p *faultProgram) Run(ctx *Context, msgs []Message) {
	if p.panicRunAt != 0 && ctx.Superstep() == p.panicRunAt {
		p.mu.Lock()
		fire := p.panicsFired < p.panicTimes
		if fire {
			p.panicsFired++
		}
		p.mu.Unlock()
		if fire {
			panic(fmt.Sprintf("injected run panic at superstep %d", ctx.Superstep()))
		}
	}
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
		ctx.Send((v+1)%p.n, ival.Universe, best+1)
	}
}

func (p *faultProgram) AppendSnapshot(buf []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.dist {
		buf = binary.AppendVarint(buf, d)
	}
	return buf, nil
}

func (p *faultProgram) RestoreSnapshot(data []byte) error {
	dist := make([]int64, len(p.dist))
	for i := range dist {
		d, k := binary.Varint(data)
		if k <= 0 {
			return codec.ErrCorrupt
		}
		dist[i], data = d, data[k:]
	}
	p.mu.Lock()
	copy(p.dist, dist)
	p.mu.Unlock()
	return nil
}

// badCodec decodes nothing, failing every round-trip.
type badCodec struct{}

func (badCodec) Append(buf []byte, v any) []byte { return append(buf, 0) }
func (badCodec) Decode(buf []byte) (any, int, error) {
	return nil, 0, errors.New("badCodec: always fails")
}

// errTransport fails every send.
type errTransport struct{}

func (errTransport) Send(src, dst int, batch []byte) error {
	return errors.New("errTransport: send failed")
}
func (errTransport) Recv(dst int) ([][]byte, error) { return nil, nil }
func (errTransport) Close() error                   { return nil }

// TestRunSurvivesFaults is the satellite table: every user-level fault —
// panic in Init, panic in Run, a codec round-trip failure, a rollback to a
// checkpoint that does not restore, and a mid-run transport error — must
// surface as an error from Run with the process alive, never as a crash.
func TestRunSurvivesFaults(t *testing.T) {
	const n = 8
	cases := []struct {
		name      string
		configure func(t *testing.T, p *faultProgram) Config
		wantPanic bool // error must be a *VertexPanicError
	}{
		{
			name: "panic in Init",
			configure: func(_ *testing.T, p *faultProgram) Config {
				p.panicInit = 3
				return Config{NumWorkers: 2}
			},
			wantPanic: true,
		},
		{
			name: "panic in Run",
			configure: func(_ *testing.T, p *faultProgram) Config {
				p.panicRunAt = 2
				return Config{NumWorkers: 2}
			},
			wantPanic: true,
		},
		{
			name: "codec round-trip failure",
			configure: func(t *testing.T, _ *faultProgram) Config {
				tp, err := NewTCPTransport(2)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tp.Close() })
				return Config{NumWorkers: 2, PayloadCodec: badCodec{}, Transport: tp}
			},
		},
		{
			// The checkpoint holds an inbox its codec cannot read back: the
			// rollback fails, and the run with it.
			name: "checkpoint that does not restore",
			configure: func(_ *testing.T, p *faultProgram) Config {
				p.panicRunAt = 3
				return Config{NumWorkers: 1, PayloadCodec: badCodec{}, CheckpointEvery: 1}
			},
			wantPanic: true,
		},
		{
			name: "mid-run transport error",
			configure: func(_ *testing.T, _ *faultProgram) Config {
				// The stub's failure is permanent: it outlasts the retries.
				return Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, Transport: errTransport{}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newFaultProgram(n)
			cfg := tc.configure(t, p)
			e, err := New(n, p, cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			m, err := e.Run()
			if err == nil {
				t.Fatalf("Run must fail, got metrics %v", m)
			}
			var vp *VertexPanicError
			if got := errors.As(err, &vp); got != tc.wantPanic {
				t.Fatalf("VertexPanicError presence = %v, want %v (err: %v)", got, tc.wantPanic, err)
			}
			if tc.wantPanic {
				if vp.Vertex < 0 || vp.Superstep < 1 || len(vp.Stack) == 0 {
					t.Errorf("panic detail incomplete: vertex %d superstep %d stack %d bytes",
						vp.Vertex, vp.Superstep, len(vp.Stack))
				}
			}
		})
	}
}

// errInjectedRecv is the failure failingRecv injects.
var errInjectedRecv = errors.New("injected recv failure")

// failingRecv is a transport without Reset — the loopback TCP mesh under a
// wrapper that hides nothing else — whose Recv for worker 1 fails once, at
// superstep failAt (worker 1 receives once per superstep).
type failingRecv struct {
	*TCPTransport
	failAt int
	recvs  atomic.Int64
}

func (t *failingRecv) Recv(dst int) ([][]byte, error) {
	if dst == 1 && t.recvs.Add(1) == int64(t.failAt) {
		return nil, errInjectedRecv
	}
	return t.TCPTransport.Recv(dst)
}

// TestRollbackNeedsResettableTransport: a failed exchange may leave frames
// in flight, so over a transport that cannot discard them a rollback is not
// attempted — the run ends with the exchange's own error, checkpoints or
// not. A compute-phase failure over the same transport still rolls back: no
// exchange ran, so there is nothing to discard.
func TestRollbackNeedsResettableTransport(t *testing.T) {
	const n = 8
	run := func(t *testing.T, failRecvAt, panicRunAt int) (*faultProgram, *Metrics, *obs.Recorder, error) {
		tcp, err := NewTCPTransport(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tcp.Close() })
		p := newFaultProgram(n)
		p.panicRunAt = panicRunAt
		rec := &obs.Recorder{}
		tr := &failingRecv{TCPTransport: tcp, failAt: failRecvAt}
		e, err := New(n, p, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, Transport: tr,
			CheckpointEvery: 1, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Run()
		return p, m, rec, err
	}
	t.Run("exchange", func(t *testing.T) {
		_, _, rec, err := run(t, 2, 0)
		if !errors.Is(err, errInjectedRecv) || errors.Is(err, ErrRecoveryExhausted) {
			t.Fatalf("want the injected recv failure and no exhausted recovery, got %v", err)
		}
		if k := rec.Count("recovery"); k != 0 {
			t.Errorf("%d recovery events, want none", k)
		}
	})
	t.Run("compute", func(t *testing.T) {
		p, m, rec, err := run(t, 0, 2)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if m.Recoveries != 1 || rec.Count("recovery") != 1 {
			t.Errorf("%d recoveries, %d recovery events, want 1 and 1", m.Recoveries, rec.Count("recovery"))
		}
		for i, d := range p.dist {
			if d != int64(i) {
				t.Fatalf("dist[%d] = %d, want %d", i, d, i)
			}
		}
	})
}

// TestCheckpointRecoversFromPanic: with CheckpointEvery set, a one-shot
// panic rolls back and replays to the exact fault-free answer and metrics.
func TestCheckpointRecoversFromPanic(t *testing.T) {
	const n = 10
	clean := newFaultProgram(n)
	e, err := New(n, clean, Config{NumWorkers: 3, PayloadCodec: codec.Int64{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, err := e.Run()
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	for _, every := range []int{1, 2, 4} {
		p := newFaultProgram(n)
		p.panicRunAt = 4
		e, err := New(n, p, Config{NumWorkers: 3, PayloadCodec: codec.Int64{}, CheckpointEvery: every})
		if err != nil {
			t.Fatalf("New(every=%d): %v", every, err)
		}
		got, err := e.Run()
		if err != nil {
			t.Fatalf("run with CheckpointEvery=%d: %v", every, err)
		}
		for i := 0; i < n; i++ {
			if p.dist[i] != int64(i) {
				t.Fatalf("every=%d: dist[%d] = %d, want %d", every, i, p.dist[i], i)
			}
		}
		if p.panicsFired != 1 {
			t.Errorf("every=%d: panics fired = %d, want 1", every, p.panicsFired)
		}
		if got.Recoveries != 1 {
			t.Errorf("every=%d: recoveries = %d, want 1", every, got.Recoveries)
		}
		if got.Supersteps != want.Supersteps || got.Messages != want.Messages ||
			got.MessageBytes != want.MessageBytes {
			t.Errorf("every=%d: metrics diverged:\nclean: %v\nrecovered: %v", every, want, got)
		}
	}
}

// TestRecoveryExhausted: a deterministic fault that outlives the recovery
// budget must surface ErrRecoveryExhausted with the original cause wrapped.
func TestRecoveryExhausted(t *testing.T) {
	const n = 6
	p := newFaultProgram(n)
	p.panicRunAt = 3
	p.panicTimes = math.MaxInt // refires on every replay
	e, err := New(n, p, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, CheckpointEvery: 1, MaxRecoveries: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = e.Run()
	if !errors.Is(err, ErrRecoveryExhausted) {
		t.Fatalf("want ErrRecoveryExhausted, got %v", err)
	}
	var vp *VertexPanicError
	if !errors.As(err, &vp) {
		t.Fatalf("exhausted error must wrap the underlying panic, got %v", err)
	}
	if p.panicsFired != 3 {
		t.Errorf("panics fired = %d, want 3 (initial + 2 replays)", p.panicsFired)
	}
}

// TestUnlimitedRecoveries: a negative MaxRecoveries never runs out — the rule
// the cluster coordinator's barrier follows too — so a fault that clears
// after four replays finishes the run.
func TestUnlimitedRecoveries(t *testing.T) {
	const n = 6
	p := newFaultProgram(n)
	p.panicRunAt, p.panicTimes = 3, 4
	e, err := New(n, p, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, CheckpointEvery: 1, MaxRecoveries: -1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Recoveries != 4 || p.panicsFired != 4 {
		t.Errorf("%d recoveries from %d panics, want 4 from 4", m.Recoveries, p.panicsFired)
	}
}

// TestReplayCountsOnce: a rollback rewinds the run's ledger with its
// capture, so a replayed superstep counts once in Metrics — which equal the
// fault-free run's — while the registry counts every superstep executed.
func TestReplayCountsOnce(t *testing.T) {
	const n = 10
	run := func(panicAt int) (*Metrics, *obs.Registry) {
		p := newFaultProgram(n)
		p.panicRunAt = panicAt
		reg := obs.NewRegistry()
		e, err := New(n, p, Config{NumWorkers: 3, PayloadCodec: codec.Int64{}, CheckpointEvery: 2, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatalf("Run(panic at %d): %v", panicAt, err)
		}
		return m, reg
	}
	want, _ := run(0)
	// The checkpoint before superstep 3 is the latest when 4 fails: 3 runs
	// again, and 4 never reached its barrier the first time.
	got, reg := run(4)
	if got.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", got.Recoveries)
	}
	if g, w := ledger(got), ledger(want); g != w {
		t.Errorf("recovered run counted %v, fault-free %v", g, w)
	}
	if executed := reg.Counter(obs.CSupersteps).Load(); executed != int64(want.Supersteps+1) {
		t.Errorf("registry counted %d supersteps, want %d executed", executed, want.Supersteps+1)
	}
}

// TestCheckpointRequiresSnapshotter: checkpointing without the Snapshotter
// contract, or without the codec a capture encodes inboxes with, is a
// configuration error, caught up front.
func TestCheckpointRequiresSnapshotter(t *testing.T) {
	p := &countProgram{limit: 2}
	if _, err := New(4, p, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, CheckpointEvery: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	if _, err := New(4, newFaultProgram(4), Config{NumWorkers: 2, CheckpointEvery: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("without PayloadCodec: want ErrBadConfig, got %v", err)
	}
}

// TestCheckpointWithAggregatorsAndMaster: rollback must restore merged
// aggregates and phase, and masters see identical values on replay.
type replayMaster struct {
	mu    sync.Mutex
	seen  map[int][]int64 // superstep -> aggregate values observed
	halt  int
	count int
}

func (m *replayMaster) BeforeSuperstep(mc *MasterControl) {
	m.mu.Lock()
	v := mc.AggValue("sum").Int()
	m.seen[mc.Superstep()] = append(m.seen[mc.Superstep()], v)
	m.count++
	m.mu.Unlock()
	mc.SetPhase(mc.Superstep())
	if m.halt > 0 && mc.Superstep() >= m.halt {
		mc.Halt()
	}
}

// aggFaultProgram aggregates 1 per vertex per superstep and panics once.
type aggFaultProgram struct {
	faultProgram
}

func (p *aggFaultProgram) Run(ctx *Context, msgs []Message) {
	ctx.Aggregate("sum", codec.IntWord(1))
	p.faultProgram.Run(ctx, msgs)
}

func TestCheckpointWithAggregatorsAndMaster(t *testing.T) {
	const n = 6
	p := &aggFaultProgram{faultProgram: *newFaultProgram(n)}
	p.panicRunAt = 3
	master := &replayMaster{seen: map[int][]int64{}}
	e, err := New(n, p, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, CheckpointEvery: 1, Master: master,
		Aggregators: map[string]*Aggregator{"sum": SumInt64()}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries)
	}
	// Superstep 3 ran twice (original + replay); the master must have seen
	// the identical aggregate value both times.
	vals := master.seen[3]
	if len(vals) != 2 || vals[0] != vals[1] {
		t.Errorf("replayed master observations at superstep 3 = %v, want two identical", vals)
	}
	for i := 0; i < n; i++ {
		if p.dist[i] != int64(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, p.dist[i], i)
		}
	}
}

// classByteProgram rings tokens for a fixed number of supersteps, shipping
// one message of each interval-encoding class per hop, with an optional
// one-shot injected panic. It carries no user state of its own.
type classByteProgram struct {
	noSnapshot
	n, steps    int
	panicRunAt  int
	mu          sync.Mutex
	panicsFired int
}

func (p *classByteProgram) Init(*Context) {}

func (p *classByteProgram) Run(ctx *Context, msgs []Message) {
	if p.panicRunAt != 0 && ctx.Superstep() == p.panicRunAt {
		p.mu.Lock()
		fire := p.panicsFired == 0
		if fire {
			p.panicsFired++
		}
		p.mu.Unlock()
		if fire {
			panic("injected class-byte panic")
		}
	}
	if ctx.Superstep() >= p.steps {
		return
	}
	s := ival.Time(ctx.Superstep())
	dst := (ctx.Vertex() + 1) % p.n
	ctx.Send(dst, ival.Universe, int64(1))    // unbounded class
	ctx.Send(dst, ival.Point(s), int64(2))    // unit class
	ctx.Send(dst, ival.New(1, s+5), int64(3)) // general class
}

// TestCheckpointRewindDoesNotDoubleCountClassBytes pins the rewind accounting
// at the registry level: with CheckpointEvery=1, a panicked superstep is
// rolled back and replayed, and the per-class interval byte counters (and the
// message totals) must come out identical to a fault-free run — the replay
// must not re-add what the checkpoint already captured, and the aborted
// attempt must not leak partial counts.
func TestCheckpointRewindDoesNotDoubleCountClassBytes(t *testing.T) {
	const n = 8
	counters := []string{
		obs.CIntervalBytesUnit, obs.CIntervalBytesUnbounded,
		obs.CIntervalBytesGeneral, obs.CIntervalBytesEmpty,
		obs.CMessages, obs.CMessageBytes,
	}
	run := func(panicAt, every int) (*obs.Registry, Metrics) {
		t.Helper()
		reg := obs.NewRegistry()
		p := &classByteProgram{n: n, steps: 5, panicRunAt: panicAt}
		e, err := New(n, p, Config{
			NumWorkers:      3,
			PayloadCodec:    codec.Int64{},
			Registry:        reg,
			CheckpointEvery: every,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatalf("Run(panicAt=%d): %v", panicAt, err)
		}
		return reg, *m
	}

	cleanReg, _ := run(0, 0)
	faultReg, fm := run(3, 1)
	if fm.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", fm.Recoveries)
	}
	for _, name := range counters {
		clean, fault := cleanReg.Counter(name).Load(), faultReg.Counter(name).Load()
		if clean != fault {
			t.Errorf("%s = %d after rollback+replay, want %d (fault-free)", name, fault, clean)
		}
	}
	if got := cleanReg.Counter(obs.CIntervalBytesUnit).Load(); got <= 0 {
		t.Fatalf("unit-class bytes = %d, want > 0 — the fixture must exercise the class counters", got)
	}
	if got := cleanReg.Counter(obs.CIntervalBytesGeneral).Load(); got <= 0 {
		t.Fatalf("general-class bytes = %d, want > 0", got)
	}
}
