package chaos

// The in-process half of the recovery proof. The kill-9 tests lose a real
// process; these inject the faults a process dies of — a vertex that panics
// in the compute phase, a peer batch that arrives undecodable — into ICM
// shards stepped the way the coordinator steps them, and recover the one way
// the cluster does: the barrier rewinds to its committed generation and
// every shard restores its durable capture. The run must end exactly where
// the fault-free core.Run ends. Without that recovery, core.Run itself must
// end with the fault's typed error.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

const rollbackShards = 3

// faults schedules what a stepped run injects, each once: a panic of the
// first vertex to execute in superstep panicAt, and an undecodable batch
// delivered to the last shard in superstep corruptAt, after every other
// shard has taken its own. Zero schedules nothing. The fired counts
// outlive rollbacks, which is what makes a fault transient.
type faults struct {
	panicAt, corruptAt int

	mu               sync.Mutex
	panics, corrupts int
}

// fire reports whether the fault scheduled at want fires in superstep s.
func (f *faults) fire(want, s int, fired *int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if want == 0 || s != want || *fired > 0 {
		return false
	}
	*fired++
	return true
}

// wrap is a core.Options.WrapProgram that panics on schedule. The wrapper
// keeps the runtime's Snapshotter, without which a shard cannot capture.
func (f *faults) wrap(p engine.Program) engine.Program {
	return &panicking{Snapshotter: p.(engine.Snapshotter), inner: p, f: f}
}

type panicking struct {
	engine.Snapshotter
	inner engine.Program
	f     *faults
}

func (p *panicking) Init(ctx *engine.Context) { p.inner.Init(ctx) }

func (p *panicking) Run(ctx *engine.Context, msgs []engine.Message) {
	if p.f.fire(p.f.panicAt, ctx.Superstep(), &p.f.panics) {
		panic(fmt.Sprintf("chaos: injected panic at vertex %d, superstep %d", ctx.Vertex(), ctx.Superstep()))
	}
	p.inner.Run(ctx, msgs)
}

// steppedRun runs the program build returns over g as rollbackShards core
// shards, one built per shard as each process builds its own. Like the
// coordinator, it commits a generation before superstep 1 and at the
// barrier closing every superstep divisible by every, with every shard's
// capture; a failed superstep rewinds the barrier, restores every shard to
// the committed capture — which it must capture back to byte for byte — and
// resumes where the barrier says. It returns the
// assembled result with the barrier's metrics.
func steppedRun(t *testing.T, g *tgraph.Graph, build func() (core.Program, core.Options), every int, f *faults) *core.Result {
	t.Helper()
	shards := make([]*core.Shard, rollbackShards)
	var opts core.Options
	var prog core.Program
	for i := range shards {
		prog, opts = build()
		opts.NumWorkers = rollbackShards
		opts.WrapProgram = f.wrap
		s, err := core.NewShard(g, prog, opts, i)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	b, err := core.NewBarrier(opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := make([][]byte, len(shards))
	commit := func(next int) {
		for i, s := range shards {
			data, err := s.CaptureDurable()
			if err != nil {
				t.Fatalf("capture shard %d: %v", i, err)
			}
			ckpts[i] = data
		}
		b.Commit(next)
	}
	// superstep runs one superstep over every shard in the cluster's order:
	// compute and ship, then each shard's delivery of its peers' batches in
	// ascending source order, then the reports.
	superstep := func(step int) ([]engine.StepReport, error) {
		outs := make([][][]byte, len(shards))
		for i, s := range shards {
			s.SetPhase(b.Phase())
			if err := s.Compute(); err != nil {
				return nil, err
			}
			var err error
			if outs[i], err = s.Outbound(); err != nil {
				return nil, err
			}
		}
		for d, s := range shards {
			var in [][]byte
			for src := range shards {
				if src != d {
					in = append(in, outs[src][d])
				}
			}
			if d == len(shards)-1 && f.fire(f.corruptAt, step, &f.corrupts) {
				in[0] = []byte{0xff} // an unterminated varint: no batch decodes from it
			}
			if _, err := s.Deliver(in); err != nil {
				return nil, err
			}
		}
		reps := make([]engine.StepReport, len(shards))
		for i, s := range shards {
			reps[i] = s.Barrier()
		}
		return reps, nil
	}
	commit(1)
	for step := 1; b.Open(step); step++ {
		reps, err := superstep(step)
		if err != nil {
			ev, rerr := b.Rewind(step)
			if rerr != nil {
				t.Fatalf("superstep %d: %v (after %v)", step, rerr, err)
			}
			for i, s := range shards {
				if err := s.RestoreDurable(ckpts[i]); err != nil {
					t.Fatalf("restore shard %d: %v", i, err)
				}
				// Nothing the failed attempt left may survive the restore:
				// no frontier slot, no inbox range, no state.
				if again, err := s.CaptureDurable(); err != nil || !bytes.Equal(again, ckpts[i]) {
					t.Fatalf("shard %d restored after superstep %d failed does not capture back to the same bytes (error %v)",
						i, step, err)
				}
			}
			step = ev.ResumeAt - 1
			continue
		}
		quiesced := b.Close(reps)
		b.SuperstepEnd(step, obs.Totals{})
		if quiesced {
			break
		}
		if step%every == 0 {
			commit(step + 1)
		}
	}
	m := b.End(0)
	blobs := make([][]byte, len(shards))
	for i, s := range shards {
		if blobs[i], err = s.EncodeOwnedStates(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := core.AssembleResult(g, core.StateCodecOf(prog, opts), blobs, &m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// faultFree is the reference: core.Run of the same program, in process, on
// as many workers.
func faultFree(t *testing.T, g *tgraph.Graph, build func() (core.Program, core.Options)) *core.Result {
	t.Helper()
	prog, opts := build()
	opts.NumWorkers = rollbackShards
	res, err := core.Run(g, prog, opts)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	return res
}

// requireSameRun asserts a recovered run ended exactly where the fault-free
// one did: bit-identical partitioned states, the deterministic counters
// (timings differ) and the ICM stats.
func requireSameRun(t *testing.T, base, got *core.Result) {
	t.Helper()
	for i := 0; i < base.Graph.NumVertices(); i++ {
		if !reflect.DeepEqual(base.State(i).Parts(), got.State(i).Parts()) {
			t.Errorf("vertex %d partitions diverged:\nfault-free: %v\nrecovered:  %v",
				i, base.State(i).Parts(), got.State(i).Parts())
		}
	}
	if b, g := counts(base.Metrics), counts(got.Metrics); b != g {
		t.Errorf("recovered run counted %v, fault-free %v", g, b)
	}
	if base.Stats != got.Stats {
		t.Errorf("ICM stats diverged:\nfault-free: %+v\nrecovered:  %+v", base.Stats, got.Stats)
	}
}

func transitSSSP() (core.Program, core.Options) {
	a := &algorithms.SSSP{Source: 0, StartTime: 0}
	return a, a.Options()
}

// TestChaosSSSPMatchesFaultFree is the headline guarantee: SSSP over the
// transit example, committing every superstep, survives a vertex panic in
// superstep 2 and a corrupt batch in superstep 3 — two rollbacks — and ends
// in exactly the fault-free answer, the paper's published costs included,
// with the fault-free counts.
func TestChaosSSSPMatchesFaultFree(t *testing.T) {
	g := tgraph.TransitExample()
	base := faultFree(t, g, transitSSSP)
	f := &faults{panicAt: 2, corruptAt: 3}
	got := steppedRun(t, g, transitSSSP, 1, f)
	if f.panics != 1 || f.corrupts != 1 {
		t.Fatalf("%d panics and %d corrupt batches fired, want 1 and 1", f.panics, f.corrupts)
	}
	if got.Metrics.Recoveries != 2 {
		t.Errorf("recovered %d times, want 2", got.Metrics.Recoveries)
	}
	for id := tgraph.VertexID(0); id < 6; id++ {
		want, have := algorithms.SSSPCosts(base, id), algorithms.SSSPCosts(got, id)
		if !reflect.DeepEqual(want, have) {
			t.Errorf("vertex %s: costs %v, want %v", tgraph.TransitVertexName(id), have, want)
		}
	}
	requireSameRun(t, base, got)
}

// TestChaosRollbackRestoresFrontiers is the same guarantee at a later,
// sparser superstep of a longer run, with a generation committed every third
// superstep: the panic in superstep 6 rolls back to the generation before
// superstep 4, so supersteps 4 and 5 are replayed from restored frontiers
// and inboxes. Had a restore kept a frontier slot of the failed attempt, or
// lost one it captured, the replay would compute a different vertex set, and
// the captures, states and counts would diverge.
func TestChaosRollbackRestoresFrontiers(t *testing.T) {
	g, err := gen.Generate(gen.TwitterLike(0.02), 5)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (core.Program, core.Options) {
		a := &algorithms.SSSP{Source: 2, StartTime: 0}
		return a, a.Options()
	}
	base := faultFree(t, g, build)
	if base.Metrics.Supersteps <= 6 {
		t.Fatalf("the fault-free run closed %d supersteps; the panic needs a seventh", base.Metrics.Supersteps)
	}
	f := &faults{panicAt: 6}
	got := steppedRun(t, g, build, 3, f)
	if f.panics != 1 {
		t.Fatalf("%d panics fired, want 1", f.panics)
	}
	if got.Metrics.Recoveries != 1 {
		t.Errorf("recovered %d times, want 1", got.Metrics.Recoveries)
	}
	requireSameRun(t, base, got)
}

// TestChaosSpilledPayloadsMatchFaultFree is the same guarantee for the two
// programs whose messages are slices, which no word holds: their payloads
// travel in the batches' spill tables and their states in the program's
// state coder, through the captures a panic and a corrupt batch force the
// shards back to.
func TestChaosSpilledPayloadsMatchFaultFree(t *testing.T) {
	g, err := gen.Generate(gen.TwitterLike(0.02), 5)
	if err != nil {
		t.Fatal(err)
	}
	programs := map[string]func() (core.Program, core.Options){
		"lcc": func() (core.Program, core.Options) { a := algorithms.NewLCC(g); return a, a.Options() },
		"tc":  func() (core.Program, core.Options) { a := &algorithms.TC{}; return a, a.Options() },
	}
	for name, build := range programs {
		t.Run(name, func(t *testing.T) {
			base := faultFree(t, g, build)
			if base.Metrics.Spilled == 0 || base.Metrics.Spilled != base.Metrics.Messages {
				t.Fatalf("%d of %d messages spilled; every one is a slice", base.Metrics.Spilled, base.Metrics.Messages)
			}
			if base.Metrics.Supersteps < 2 {
				t.Fatalf("the fault-free run closed %d supersteps; the faults need two", base.Metrics.Supersteps)
			}
			f := &faults{panicAt: 2, corruptAt: 1}
			got := steppedRun(t, g, build, 1, f)
			if f.panics != 1 || f.corrupts != 1 || got.Metrics.Recoveries != 2 {
				t.Fatalf("%d panics, %d corrupt batches and %d recoveries, want 1, 1 and 2",
					f.panics, f.corrupts, got.Metrics.Recoveries)
			}
			requireSameRun(t, base, got)
		})
	}
}

// corruptingTransport is the loopback TCP mesh whose every send from
// superstep at on (worker 0 sends once per peer per superstep) carries one
// undecodable byte instead of its batch.
type corruptingTransport struct {
	*engine.TCPTransport
	mu    sync.Mutex
	sends int
	at    int
}

func (t *corruptingTransport) Send(src, dst int, batch []byte) error {
	if src == 0 {
		t.mu.Lock()
		t.sends++
		if t.sends > (t.at-1)*(rollbackShards-1) {
			batch = []byte{0xff}
		}
		t.mu.Unlock()
	}
	return t.TCPTransport.Send(src, dst, batch)
}

// TestChaosWithoutCheckpointFailsCleanly: core.Run has no recovery of its
// own, so the faults the stepped runs above survive end it — with the typed
// error, the process alive — instead of being recovered or crashing.
func TestChaosWithoutCheckpointFailsCleanly(t *testing.T) {
	g := tgraph.TransitExample()
	t.Run("panic", func(t *testing.T) {
		prog, opts := transitSSSP()
		opts.NumWorkers = rollbackShards
		f := &faults{panicAt: 2}
		opts.WrapProgram = f.wrap
		_, err := core.Run(g, prog, opts)
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
		tcp, err := engine.NewTCPTransport(rollbackShards)
		if err != nil {
			t.Fatal(err)
		}
		defer tcp.Close()
		prog, opts := transitSSSP()
		opts.NumWorkers = rollbackShards
		opts.Transport = &corruptingTransport{TCPTransport: tcp, at: 2}
		_, err = core.Run(g, prog, opts)
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("a corrupt batch must end the run with an error wrapping codec.ErrCorrupt, got %v", err)
		}
	})
}
