package chaos

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// TestTransportFaultSchedule drives the chaos mesh directly and checks every
// fault kind manifests the way the engine expects: drops error at Send,
// corruption poisons the frame, duplication trips the straggler check, and
// Reset wipes the slate.
func TestTransportFaultSchedule(t *testing.T) {
	tr, err := NewTransport(2, TransportOptions{Seed: 1, Drops: 1, Every: 1})
	if err != nil {
		t.Fatalf("NewTransport: %v", err)
	}
	if err := tr.Send(0, 1, []byte{1, 2, 3}); err == nil {
		t.Fatalf("first send should be dropped")
	}
	if err := tr.Send(0, 1, []byte{1, 2, 3}); err != nil {
		t.Fatalf("retry after drop: %v", err)
	}
	frames, err := tr.Recv(1)
	if err != nil || len(frames) != 1 || !reflect.DeepEqual(frames[0], []byte{1, 2, 3}) {
		t.Fatalf("recv after retry: %v %v", frames, err)
	}

	// Corruption: the frame arrives but is undecodable.
	tr, _ = NewTransport(2, TransportOptions{Seed: 1, Corruptions: 1, Every: 1})
	if err := tr.Send(0, 1, []byte{1, 2, 3}); err != nil {
		t.Fatalf("corrupting send should succeed: %v", err)
	}
	frames, err = tr.Recv(1)
	if err != nil {
		t.Fatalf("recv of corrupt frame: %v", err)
	}
	if reflect.DeepEqual(frames[0], []byte{1, 2, 3}) {
		t.Fatalf("frame should have been corrupted")
	}
	if _, k := binary.Uvarint(frames[0]); k > 0 {
		t.Fatalf("corrupt frame still has a decodable batch header")
	}

	// Duplication: the straggler check fails the superstep; Reset clears it.
	tr, _ = NewTransport(2, TransportOptions{Seed: 1, Duplicates: 1, Every: 1})
	if err := tr.Send(0, 1, []byte{9}); err != nil {
		t.Fatalf("duplicating send: %v", err)
	}
	if _, err := tr.Recv(1); err == nil {
		t.Fatalf("duplicate frame must fail the receive")
	}
	if err := tr.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if _, err := tr.Recv(1); err == nil {
		t.Fatalf("after Reset the queue must be empty (missing frame)")
	}
	if s := tr.Stats(); s.Duplicates != 1 || s.Resets != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// ringProgram is a BFS-level program over a directed ring implementing
// engine.Snapshotter, so it can run under checkpointing.
type ringProgram struct {
	n    int
	mu   sync.Mutex
	dist []int64
}

func newRingProgram(n int) *ringProgram {
	return &ringProgram{n: n, dist: make([]int64, n)}
}

func (p *ringProgram) Init(ctx *engine.Context) {
	p.mu.Lock()
	p.dist[ctx.Vertex()] = 1 << 30
	p.mu.Unlock()
}

func (p *ringProgram) Run(ctx *engine.Context, msgs []engine.Message) {
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
		ctx.Send((v+1)%p.n, ival.Universe, best+1)
	}
}

func (p *ringProgram) AppendSnapshot(buf []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.dist {
		buf = binary.AppendVarint(buf, d)
	}
	return buf, nil
}

func (p *ringProgram) RestoreSnapshot(data []byte) error {
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

// TestEngineRecoversOverChaosTransport runs BFS over the chaos mesh with
// checkpointing on and every fault kind scheduled, and demands bit-identical
// results plus at least one recovery.
func TestEngineRecoversOverChaosTransport(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	tr, err := NewTransport(3, TransportOptions{
		Seed: 42, Drops: 2, Corruptions: 2, Duplicates: 1, Delays: 2, Every: 7,
	})
	if err != nil {
		t.Fatalf("NewTransport: %v", err)
	}
	defer tr.Close()
	p := newRingProgram(n)
	fp := NewFaultyProgram(PanicPlan{Superstep: 3, Vertex: AnyVertex})
	e, err := engine.New(n, fp.Wrap(p), engine.Config{
		NumWorkers:      3,
		PayloadCodec:    codec.Int64{},
		Transport:       tr,
		CheckpointEvery: 2,
		MaxRecoveries:   10,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run under chaos: %v", err)
	}
	for i := 0; i < n; i++ {
		if p.dist[i] != int64(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, p.dist[i], i)
		}
	}
	if fp.Panics() < 1 {
		t.Errorf("scheduled panic never fired")
	}
	if tr.Stats().Faults() < 1 {
		t.Errorf("no transport fault fired: %+v", tr.Stats())
	}
	if m.Recoveries < 1 {
		t.Errorf("run recovered %d times, want >= 1: %v", m.Recoveries, m)
	}
	if m.Checkpoints < 1 {
		t.Errorf("no checkpoints captured: %v", m)
	}
	// The ring needs n+1 supersteps of propagation regardless of faults.
	if m.Supersteps != n+1 {
		t.Errorf("supersteps = %d, want %d", m.Supersteps, n+1)
	}
	if m.Messages != int64(n) {
		t.Errorf("messages = %d, want %d (replays must not double-count)", m.Messages, n)
	}
}

// chaosSSSP runs temporal SSSP from A over the paper's transit example with
// the given fault injection; faultFree ignores the chaos knobs entirely.
func chaosSSSP(t *testing.T, checkpointEvery int, tr *Transport, fp *FaultyProgram) (*core.Result, error) {
	t.Helper()
	g := tgraph.TransitExample()
	a := &algorithms.SSSP{Source: 0, StartTime: 0}
	opts := a.Options()
	opts.NumWorkers = 3
	opts.CheckpointEvery = checkpointEvery
	opts.MaxRecoveries = 10
	if tr != nil {
		opts.Transport = tr
	}
	if fp != nil {
		opts.WrapProgram = fp.Wrap
	}
	return core.Run(g, a, opts)
}

// TestChaosSSSPMatchesFaultFree is the headline guarantee: an SSSP run over
// the transit example with seeded fault injection (transport faults and an
// injected panic) and checkpointing enabled completes and decodes to exactly
// the fault-free answer, with identical deterministic metrics.
func TestChaosSSSPMatchesFaultFree(t *testing.T) {
	base, err := chaosSSSP(t, 0, nil, nil)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	tr, err := NewTransport(3, TransportOptions{
		Seed: 7, Drops: 1, Corruptions: 1, Duplicates: 1, Delays: 1, Every: 4,
	})
	if err != nil {
		t.Fatalf("NewTransport: %v", err)
	}
	defer tr.Close()
	fp := NewFaultyProgram(PanicPlan{Superstep: 2, Vertex: AnyVertex})
	got, err := chaosSSSP(t, 1, tr, fp)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	// The injected faults must actually have fired.
	if fp.Panics() < 1 {
		t.Fatalf("scheduled panic never fired")
	}
	if tr.Stats().Faults() < 1 {
		t.Fatalf("no transport fault fired: %+v", tr.Stats())
	}
	if got.Metrics.Recoveries < 1 {
		t.Errorf("chaos run recovered %d times, want >= 1", got.Metrics.Recoveries)
	}

	// Decoded results are bit-identical to the fault-free run for every
	// transit stop, including the paper's published costs for B and E.
	for id := tgraph.VertexID(0); id < 6; id++ {
		want := algorithms.SSSPCosts(base, id)
		have := algorithms.SSSPCosts(got, id)
		if !reflect.DeepEqual(want, have) {
			t.Errorf("vertex %s: costs %v, want %v", tgraph.TransitVertexName(id), have, want)
		}
	}
	// Stronger than the decoded costs: the raw partitioned states must be
	// bit-for-bit identical. Delivery now runs through pooled message slabs
	// that rollback recycles, so this pins that no replay ever aliases a
	// recycled (or chaos-corrupted) buffer into a surviving state.
	requireSameRun(t, base, got)
}

// requireSameRun asserts a chaos run ended exactly where the fault-free one
// did: bit-identical partitioned states, and the deterministic counters
// (timings differ) and ICM stats equal.
func requireSameRun(t *testing.T, base, got *core.Result) {
	t.Helper()
	for i := 0; i < base.Graph.NumVertices(); i++ {
		if !reflect.DeepEqual(base.State(i).Parts(), got.State(i).Parts()) {
			t.Errorf("vertex %d partitions diverged:\nfault-free: %v\nchaos:      %v",
				i, base.State(i).Parts(), got.State(i).Parts())
		}
	}
	bm, gm := base.Metrics, got.Metrics
	if bm.Supersteps != gm.Supersteps || bm.ComputeCalls != gm.ComputeCalls ||
		bm.ScatterCalls != gm.ScatterCalls || bm.Messages != gm.Messages ||
		bm.MessageBytes != gm.MessageBytes {
		t.Errorf("metrics diverged:\nfault-free: %v\nchaos:      %v", bm, gm)
	}
	if base.Stats != got.Stats {
		t.Errorf("ICM stats diverged:\nfault-free: %+v\nchaos:      %+v", base.Stats, got.Stats)
	}
}

// TestChaosRollbackRestoresFrontiers is the same guarantee at a later, sparser
// superstep and under a second fault schedule: a checkpoint restore rebuilds
// each worker's dense frontier from the restored active flags, and if it ever
// resurrected a stale one — a slot missing, duplicated, or out of sync with
// its flag — the replayed supersteps would compute a different vertex set and
// the states and message totals below would diverge from the fault-free run.
func TestChaosRollbackRestoresFrontiers(t *testing.T) {
	base, err := chaosSSSP(t, 0, nil, nil)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	tr, err := NewTransport(3, TransportOptions{
		Seed: 11, Drops: 1, Corruptions: 1, Duplicates: 1, Delays: 1, Every: 4,
	})
	if err != nil {
		t.Fatalf("NewTransport: %v", err)
	}
	defer tr.Close()
	fp := NewFaultyProgram(PanicPlan{Superstep: 3, Vertex: AnyVertex})
	got, err := chaosSSSP(t, 1, tr, fp)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	if fp.Panics() < 1 {
		t.Fatalf("scheduled panic never fired")
	}
	if got.Metrics.Recoveries < 1 {
		t.Errorf("chaos run recovered %d times, want >= 1", got.Metrics.Recoveries)
	}
	requireSameRun(t, base, got)
}

// TestChaosSpilledPayloadsMatchFaultFree is the same guarantee for the three
// programs whose messages are slices, which no word holds: their payloads
// travel in the slabs' spill tables — through the fault transport's drops,
// corruptions and duplicates, and through the rollbacks those and an injected
// panic force — and the run still ends in the fault-free states and counts.
func TestChaosSpilledPayloadsMatchFaultFree(t *testing.T) {
	g, err := gen.Generate(gen.TwitterLike(0.02), 5)
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]func() (core.Program, core.Options){
		"lcc": func() (core.Program, core.Options) { a := algorithms.NewLCC(g); return a, a.Options() },
		"tc":  func() (core.Program, core.Options) { a := &algorithms.TC{}; return a, a.Options() },
		"ffm": func() (core.Program, core.Options) { a := &algorithms.FFM{}; return a, a.Options() },
	}
	for name, build := range programs {
		t.Run(name, func(t *testing.T) {
			// Fault-free in process: a list-valued state keeps the order its
			// messages arrived in, and Run delivers in one order with or
			// without a transport.
			prog, opts := build()
			opts.NumWorkers = 3
			base, err := core.Run(g, prog, opts)
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			if base.Metrics.Spilled == 0 || base.Metrics.Spilled != base.Metrics.Messages {
				t.Fatalf("%d of %d messages spilled; every one is a slice", base.Metrics.Spilled, base.Metrics.Messages)
			}

			tr, err := NewTransport(3, TransportOptions{
				Seed: 11, Drops: 1, Corruptions: 1, Duplicates: 1, Delays: 1, Every: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			fp := NewFaultyProgram(PanicPlan{Superstep: 2, Vertex: AnyVertex})
			prog, opts = build()
			opts.NumWorkers = 3
			opts.CheckpointEvery, opts.MaxRecoveries = 1, 10
			opts.Transport, opts.WrapProgram = tr, fp.Wrap
			got, err := core.Run(g, prog, opts)
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			if fp.Panics() < 1 || tr.Stats().Faults() < 1 || got.Metrics.Recoveries < 1 {
				t.Fatalf("faults did not fire: %d panics, %+v, %d recoveries", fp.Panics(), tr.Stats(), got.Metrics.Recoveries)
			}
			for i := 0; i < g.NumVertices(); i++ {
				if !reflect.DeepEqual(base.State(i).Parts(), got.State(i).Parts()) {
					t.Fatalf("vertex %d partitions diverged:\nfault-free: %v\nchaos:      %v",
						i, base.State(i).Parts(), got.State(i).Parts())
				}
			}
			bm, gm := base.Metrics, got.Metrics
			if bm.Supersteps != gm.Supersteps || bm.ComputeCalls != gm.ComputeCalls || bm.ScatterCalls != gm.ScatterCalls ||
				bm.Messages != gm.Messages || bm.MessageBytes != gm.MessageBytes || bm.Spilled != gm.Spilled {
				t.Errorf("metrics diverged:\nfault-free: %v (%d spilled)\nchaos:      %v (%d spilled)", bm, bm.Spilled, gm, gm.Spilled)
			}
		})
	}
}

// TestChaosTraceEvents attaches a tracer to a chaos run and demands the
// fault path shows up in the event stream — checkpoints, recoveries and
// send retries — and that the resulting trace still validates: the
// replay-aware reconciliation must hold even when supersteps were rolled
// back and re-executed.
func TestChaosTraceEvents(t *testing.T) {
	tr, err := NewTransport(3, TransportOptions{
		Seed: 7, Drops: 1, Corruptions: 1, Duplicates: 1, Delays: 1, Every: 4,
	})
	if err != nil {
		t.Fatalf("NewTransport: %v", err)
	}
	defer tr.Close()
	fp := NewFaultyProgram(PanicPlan{Superstep: 2, Vertex: AnyVertex})

	g := tgraph.TransitExample()
	a := &algorithms.SSSP{Source: 0, StartTime: 0}
	opts := a.Options()
	opts.NumWorkers = 3
	opts.CheckpointEvery = 1
	opts.MaxRecoveries = 10
	opts.Transport = tr
	opts.WrapProgram = fp.Wrap
	rec := &obs.Recorder{}
	opts.Tracer = rec
	res, err := core.Run(g, a, opts)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	if got := rec.Count("checkpoint"); got != res.Metrics.Checkpoints || got < 1 {
		t.Errorf("checkpoint events = %d, metrics say %d (want >= 1)", got, res.Metrics.Checkpoints)
	}
	if got := rec.Count("recovery"); got != res.Metrics.Recoveries || got < 1 {
		t.Errorf("recovery events = %d, metrics say %d (want >= 1)", got, res.Metrics.Recoveries)
	}
	if tr.Stats().Drops >= 1 && rec.Count("send_retry") < 1 {
		t.Errorf("transport dropped %d sends but no send_retry event was traced", tr.Stats().Drops)
	}
	for _, e := range rec.Events() {
		if r, ok := e.(obs.Recovery); ok {
			if r.Reason == "" || r.Attempt < 1 || r.ResumeAt < 1 || r.Failed < r.ResumeAt {
				t.Errorf("recovery event underspecified: %+v", r)
			}
		}
	}
	if err := obs.ValidateTrace(rec.Events()); err != nil {
		t.Errorf("chaos trace does not validate: %v", err)
	}
}

// TestRunEventSequence pins the order Run reports a superstep in: its
// superstep_start; the compute phase of every worker, in worker order; over
// a Transport, every worker's ship phase; every worker's exchange phase; its
// superstep_end. A superstep whose exchange fails, rolled back, reports no
// phase: its recovery follows its superstep_start.
func TestRunEventSequence(t *testing.T) {
	type event struct {
		kind              string
		superstep, worker int
		phase             string
	}
	cases := []struct {
		name     string
		faults   *TransportOptions // nil: in process
		failedAt int               // the superstep whose exchange fails, 0 for none
	}{
		{name: "in process"},
		{name: "transport", faults: &TransportOptions{Seed: 1}},
		// The third send is superstep 2's first: its frame cannot be decoded.
		{name: "failed exchange", faults: &TransportOptions{Seed: 1, Corruptions: 1, Every: 3}, failedAt: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &algorithms.SSSP{Source: 0, StartTime: 0}
			opts := a.Options()
			opts.NumWorkers = 2
			rec := &obs.Recorder{}
			opts.Tracer = rec
			phases := []string{"compute", "exchange"}
			if tc.faults != nil {
				tr, err := NewTransport(2, *tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				opts.Transport, opts.CheckpointEvery = tr, 1
				phases = []string{"compute", "ship", "exchange"}
			}
			if _, err := core.Run(tgraph.TransitExample(), a, opts); err != nil {
				t.Fatal(err)
			}
			var got []event
			for _, e := range rec.Events() {
				switch e := e.(type) {
				case obs.SuperstepStart:
					got = append(got, event{kind: e.Kind(), superstep: e.Superstep})
				case obs.WorkerPhase:
					got = append(got, event{e.Kind(), e.Superstep, e.Worker, e.Phase})
				case obs.SuperstepEnd:
					got = append(got, event{kind: e.Kind(), superstep: e.Superstep})
				case obs.Recovery:
					got = append(got, event{kind: e.Kind(), superstep: e.Failed})
				}
			}
			var want []event
			var failed []int
			for i, e := range got {
				if e.kind != "superstep_start" {
					continue
				}
				want = append(want, e)
				if i+1 < len(got) && got[i+1].kind == "recovery" {
					want = append(want, got[i+1])
					failed = append(failed, e.superstep)
					continue
				}
				for _, ph := range phases {
					for w := 0; w < 2; w++ {
						want = append(want, event{"worker_phase", e.superstep, w, ph})
					}
				}
				want = append(want, event{kind: "superstep_end", superstep: e.superstep})
			}
			var wantFailed []int
			if tc.failedAt > 0 {
				wantFailed = []int{tc.failedAt}
			}
			if !slices.Equal(failed, wantFailed) || rec.Count("recovery") != len(wantFailed) {
				t.Errorf("supersteps recovered right after their start %v, %d recoveries in all, want %v",
					failed, rec.Count("recovery"), wantFailed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("event sequence\n  got  %v\n  want %v", got, want)
			}
			if err := obs.ValidateTrace(rec.Events()); err != nil {
				t.Errorf("trace does not validate: %v", err)
			}
		})
	}
}

// TestChaosWithoutCheckpointFailsCleanly reruns the faulty configurations
// with checkpointing disabled: the run must return a typed error — with the
// process alive — instead of recovering or crashing.
func TestChaosWithoutCheckpointFailsCleanly(t *testing.T) {
	t.Run("panic", func(t *testing.T) {
		fp := NewFaultyProgram(PanicPlan{Superstep: 2, Vertex: AnyVertex})
		_, err := chaosSSSP(t, 0, nil, fp)
		var vp *engine.VertexPanicError
		if !errors.As(err, &vp) {
			t.Fatalf("want *engine.VertexPanicError, got %v", err)
		}
		if vp.Superstep != 2 || vp.Vertex < 0 || len(vp.Stack) == 0 {
			t.Errorf("panic detail = vertex %d superstep %d stack %d bytes",
				vp.Vertex, vp.Superstep, len(vp.Stack))
		}
	})
	t.Run("transport", func(t *testing.T) {
		// Three corruptions: send retries can't mask them, and without a
		// checkpoint the first one is terminal.
		tr, err := NewTransport(3, TransportOptions{Seed: 3, Corruptions: 3, Every: 4})
		if err != nil {
			t.Fatalf("NewTransport: %v", err)
		}
		defer tr.Close()
		if _, err := chaosSSSP(t, 0, tr, nil); err == nil {
			t.Fatalf("corrupted exchange without checkpointing must fail the run")
		}
	})
}
