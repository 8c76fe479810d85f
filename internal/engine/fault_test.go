package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// faultProgram propagates BFS levels around a directed ring and injects
// faults on demand: a panic in Init, a panic in Run, or nothing.
type faultProgram struct {
	n           int
	mu          sync.Mutex
	dist        []int64
	panicInit   int // vertex to panic in Init, -1 for never
	panicRunAt  int // superstep to panic in Run, once; 0 for never
	panicsFired int
}

func newFaultProgram(n int) *faultProgram {
	return &faultProgram{n: n, dist: make([]int64, n), panicInit: -1}
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
		fire := p.panicsFired == 0
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

// errSend is the failure errTransport injects.
var errSend = errors.New("errTransport: send failed")

// errTransport fails every send.
type errTransport struct{}

func (errTransport) Send(src, dst int, batch []byte) error { return errSend }
func (errTransport) Recv(dst int) ([][]byte, error)        { return nil, nil }
func (errTransport) Close() error                          { return nil }

// errInjectedRecv is the failure failingRecv injects.
var errInjectedRecv = errors.New("injected recv failure")

// failingRecv is the loopback TCP mesh whose Recv for worker 1 fails once, at
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

// tcp is a loopback TCP mesh of n workers, closed with the test.
func tcp(t *testing.T, n int) *TCPTransport {
	t.Helper()
	tp, err := NewTCPTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tp.Close() })
	return tp
}

// TestRunSurvivesFaults is the satellite table: every fault — a panic in
// Init, a panic in Run, a codec round-trip failure, a failed send and a
// failed receive — must end Run with an error, the process alive, and no
// superstep closed after the one that failed.
func TestRunSurvivesFaults(t *testing.T) {
	const n = 8
	cases := []struct {
		name      string
		configure func(t *testing.T, p *faultProgram) Config
		wantPanic bool  // error must be a *VertexPanicError
		wantErr   error // else, when set, error must wrap it
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
				return Config{NumWorkers: 2, PayloadCodec: badCodec{}, Transport: tcp(t, 2)}
			},
		},
		{
			name: "mid-run transport error",
			configure: func(_ *testing.T, _ *faultProgram) Config {
				return Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, Transport: errTransport{}}
			},
			wantErr: errSend,
		},
		{
			name: "mid-run receive error",
			configure: func(t *testing.T, _ *faultProgram) Config {
				tr := &failingRecv{TCPTransport: tcp(t, 2), failAt: 2}
				return Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, Transport: tr}
			},
			wantErr: errInjectedRecv,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newFaultProgram(n)
			cfg := tc.configure(t, p)
			rec := &obs.Recorder{}
			cfg.Tracer = rec
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
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("Run error %v, want one wrapping %v", err, tc.wantErr)
			}
			// The failed superstep is the last one started, and none closes
			// after it.
			started, closed := rec.Count("superstep_start"), rec.Count("superstep_end")
			if started > 0 && closed != started-1 {
				t.Errorf("%d supersteps started, %d closed: want every one but the failed one closed", started, closed)
			}
		})
	}
}

// TestCheckpointRequiresSnapshotter: a shard's durable capture needs the
// Snapshotter contract and the codec it encodes inboxes with, so NewShard
// refuses a program without the one and a configuration without the other.
func TestCheckpointRequiresSnapshotter(t *testing.T) {
	p := &countProgram{limit: 2}
	if _, err := NewShard(4, p, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}}, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
	if _, err := NewShard(4, newFaultProgram(4), Config{NumWorkers: 2}, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("without PayloadCodec: want ErrBadConfig, got %v", err)
	}
}

// phaseMaster sets the phase to the superstep about to run.
type phaseMaster struct{}

func (phaseMaster) BeforeSuperstep(mc *MasterControl) { mc.SetPhase(mc.Superstep()) }

// TestBarrierRecoveryLedger is the cluster's rollback on the barrier alone.
// After a Commit before superstep 3, supersteps 3 and 4 close and 5 fails,
// over and over: within the budget each Rewind returns the phase, the merged
// aggregates, the totals and the frontier the Commit recorded, and says where
// to resume; past it Rewind refuses with an error wrapping
// ErrRecoveryExhausted. A budget of zero is DefaultMaxRecoveries, a negative
// one never runs out. What happened is never rewound: Executed, the
// checkpoints taken and the recoveries taken only grow.
func TestBarrierRecoveryLedger(t *testing.T) {
	const attempts = 8
	rep := func(s int) []StepReport {
		return []StepReport{
			{SuperstepEnd: obs.SuperstepEnd{Active: s,
				Totals: obs.Totals{ComputeCalls: int64(s), Messages: 2, MessageBytes: 10, Delivered: 2}},
				Aggs: []codec.Word{codec.IntWord(int64(s))}},
			{SuperstepEnd: obs.SuperstepEnd{Active: 1,
				Totals: obs.Totals{ComputeCalls: 1, Messages: int64(s), MessageBytes: 5, Delivered: 1}},
				Aggs: []codec.Word{codec.IntWord(100)}},
		}
	}
	for _, tc := range []struct {
		name    string
		budget  int
		rewinds int
	}{
		{"budget of two", 2, 2},
		{"default budget", 0, DefaultMaxRecoveries},
		{"unlimited", -1, attempts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBarrier(Config{MaxRecoveries: tc.budget, Master: phaseMaster{},
				Aggregators: map[string]*Aggregator{"sum": SumInt64()}})
			if err != nil {
				t.Fatal(err)
			}
			run := func(s int) {
				t.Helper()
				if !b.Open(s) {
					t.Fatalf("superstep %d did not open", s)
				}
				if b.Close(rep(s)) {
					t.Fatalf("superstep %d quiesced", s)
				}
				b.SuperstepEnd(s, obs.Totals{ComputeNS: 3, MessagingNS: 2, BarrierNS: 1})
			}
			run(1)
			run(2)
			ev := b.Commit(3)
			if ev != (obs.Checkpoint{Superstep: 3, Index: 1}) {
				t.Fatalf("Commit(3) = %+v", ev)
			}
			committed := b.State()
			if committed.Phase != 2 || committed.Active != 3 || committed.Totals.Supersteps != 2 ||
				committed.Aggs[0] != codec.IntWord(102) {
				t.Fatalf("the fixture's committed state is %+v", committed)
			}
			for attempt := 1; attempt <= attempts; attempt++ {
				run(3)
				run(4)
				got, err := b.Rewind(5)
				m := b.End(0)
				if b.Executed() != 2+2*attempt || m.Checkpoints != 1 {
					t.Errorf("attempt %d: executed %d, %d checkpoints; want %d and 1",
						attempt, b.Executed(), m.Checkpoints, 2+2*attempt)
				}
				if attempt > tc.rewinds {
					if !errors.Is(err, ErrRecoveryExhausted) {
						t.Fatalf("attempt %d: Rewind = %v, want ErrRecoveryExhausted", attempt, err)
					}
					if m.Recoveries != tc.rewinds {
						t.Errorf("%d recoveries counted, want %d", m.Recoveries, tc.rewinds)
					}
					return
				}
				if err != nil {
					t.Fatalf("attempt %d: Rewind: %v", attempt, err)
				}
				want := obs.Recovery{Failed: 5, ResumeAt: 3, Attempt: attempt, Replayed: 2}
				if got != want {
					t.Errorf("attempt %d: Rewind = %+v, want %+v", attempt, got, want)
				}
				if st := b.State(); !reflect.DeepEqual(st, committed) || b.Phase() != 2 || b.Active() != 3 {
					t.Fatalf("attempt %d: rewound to %+v, want %+v", attempt, st, committed)
				}
				if m.Supersteps != 2 || m.Recoveries != attempt {
					t.Errorf("attempt %d: %d supersteps and %d recoveries in the ledger, want 2 and %d",
						attempt, m.Supersteps, m.Recoveries, attempt)
				}
			}
			if tc.rewinds != attempts {
				t.Errorf("the budget of %d never ran out in %d attempts", tc.budget, attempts)
			}
		})
	}
}

// TestCheckpointRecoversFromPanic: over shards stepped as the cluster steps
// them, a one-shot panic in superstep 4 rolls back to the capture committed
// before superstep 1, 2 or 4 — replaying three, two or no closed supersteps —
// and the run ends in the fault-free answer and counts.
func TestCheckpointRecoversFromPanic(t *testing.T) {
	const n = 10
	cfg := Config{NumWorkers: 3, PayloadCodec: codec.Int64{}}
	want := runStepped(t, n, newFaultProgram(n), cfg, 0, nil)
	for _, commitAt := range []int{1, 2, 4} {
		p := newFaultProgram(n)
		p.panicRunAt = 4
		got := runStepped(t, n, p, cfg, commitAt, nil)
		for i := 0; i < n; i++ {
			if p.dist[i] != int64(i) {
				t.Fatalf("commit at %d: dist[%d] = %d, want %d", commitAt, i, p.dist[i], i)
			}
		}
		if p.panicsFired != 1 || got.Recoveries != 1 {
			t.Errorf("commit at %d: %d recoveries from %d panics, want 1 from 1", commitAt, got.Recoveries, p.panicsFired)
		}
		if ledger(got) != ledger(want) {
			t.Errorf("commit at %d: recovered run counted %v, fault-free %v", commitAt, ledger(got), ledger(want))
		}
	}
}

// TestReplayCountsOnce: a rollback rewinds the barrier's ledger with the
// shards' captures, so a replayed superstep counts once in its record — which
// equals the fault-free run's — while the barrier's Executed and the registry
// count every superstep executed.
func TestReplayCountsOnce(t *testing.T) {
	const n = 10
	run := func(panicAt int) (*obs.RunEnd, *obs.Registry) {
		p := newFaultProgram(n)
		p.panicRunAt = panicAt
		reg := obs.NewRegistry()
		// The capture before superstep 3 is the latest when 4 fails: 3 runs
		// again, and 4 never reached its barrier the first time.
		m := runStepped(t, n, p, Config{NumWorkers: 3, PayloadCodec: codec.Int64{}, Registry: reg}, 3, nil)
		return m, reg
	}
	want, wantReg := run(0)
	got, reg := run(4)
	if got.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", got.Recoveries)
	}
	if g, w := ledger(got), ledger(want); g != w {
		t.Errorf("recovered run counted %v, fault-free %v", g, w)
	}
	// Every shard closes every superstep it executes; the ring sends one
	// message a superstep.
	if executed, w := reg.Counter(obs.CSupersteps).Load(), int64(3*(want.Supersteps+1)); executed != w {
		t.Errorf("registry counted %d shard supersteps, want %d executed", executed, w)
	}
	if sent, w := reg.Counter(obs.CMessages).Load(), wantReg.Counter(obs.CMessages).Load()+1; sent != w {
		t.Errorf("registry counted %d messages sent, want %d: the replayed superstep's too", sent, w)
	}
}

// replayMaster records the sum aggregate it sees before each superstep and
// sets the phase to the superstep.
type replayMaster struct {
	mu   sync.Mutex
	seen map[int][]int64 // superstep -> aggregate values observed
}

func (m *replayMaster) BeforeSuperstep(mc *MasterControl) {
	m.mu.Lock()
	m.seen[mc.Superstep()] = append(m.seen[mc.Superstep()], mc.AggValue("sum").Int())
	m.mu.Unlock()
	mc.SetPhase(mc.Superstep())
}

// aggFaultProgram aggregates 1 per vertex per superstep and panics once.
type aggFaultProgram struct {
	*faultProgram
}

func (p aggFaultProgram) Run(ctx *Context, msgs []Message) {
	ctx.Aggregate("sum", codec.IntWord(1))
	p.faultProgram.Run(ctx, msgs)
}

// TestCheckpointWithAggregatorsAndMaster: a rollback restores the merged
// aggregates with the barrier, so the master sees the same values each time
// a superstep opens again, and the run ends in the fault-free answer.
func TestCheckpointWithAggregatorsAndMaster(t *testing.T) {
	const n = 6
	p := aggFaultProgram{newFaultProgram(n)}
	p.panicRunAt = 3
	master := &replayMaster{seen: map[int][]int64{}}
	m := runStepped(t, n, p, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, Master: master,
		Aggregators: map[string]*Aggregator{"sum": SumInt64()}}, 2, nil)
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries)
	}
	// The commit before superstep 2 is the latest when 3 fails: 2 and 3 each
	// open twice, on the sums of every vertex in superstep 1 and of the one
	// active in superstep 2.
	if s2, s3 := master.seen[2], master.seen[3]; !slices.Equal(s2, []int64{n, n}) || !slices.Equal(s3, []int64{1, 1}) {
		t.Errorf("master saw %v before superstep 2 and %v before 3, want [%d %d] and [1 1]", s2, s3, n, n)
	}
	for i := 0; i < n; i++ {
		if p.dist[i] != int64(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, p.dist[i], i)
		}
	}
}
