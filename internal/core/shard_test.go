package core_test

// In-process proof of the cluster execution model: driving core.Shards by
// hand through the Compute → Outbound → Deliver → Barrier protocol must
// reproduce a single-process core.Run bit for bit (one delivery order: own
// outbox first, then peers ascending), and a durable capture +
// restore into FRESH shards must replay to the identical final state —
// the property the process-kill chaos tests rely on.

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

const testShards = 3

func newTestShards(t *testing.T, g *tgraph.Graph, algo string, p algorithms.Params) ([]*core.Shard, core.Options) {
	t.Helper()
	shards := make([]*core.Shard, testShards)
	var opts core.Options
	for i := range shards {
		prog, o, err := algorithms.New(g, algo, p)
		if err != nil {
			t.Fatal(err)
		}
		o.NumWorkers = testShards
		sh, err := core.NewShard(g, prog, o, i)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
		opts = o
	}
	return shards, opts
}

// driveShards runs the cluster protocol to completion, closing supersteps
// through core.NewBarrier. When captureAt > 0, a durable checkpoint of
// every shard is taken at the barrier after which the next superstep would
// be captureAt (the cluster's "about to execute s" gen semantics) and
// returned.
func driveShards(t *testing.T, shards []*core.Shard, opts core.Options, captureAt int) [][]byte {
	t.Helper()
	n := len(shards)
	b, err := core.NewBarrier(opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shards[0].Superstep() == 0 {
		for i, s := range shards {
			if err := s.Init(); err != nil {
				t.Fatalf("init shard %d: %v", i, err)
			}
		}
	}
	var ckpts [][]byte
	capture := func() {
		ckpts = make([][]byte, n)
		for i, s := range shards {
			data, err := s.CaptureDurable()
			if err != nil {
				t.Fatalf("capture shard %d: %v", i, err)
			}
			ckpts[i] = data
		}
	}
	for step := shards[0].Superstep(); b.Open(step); step++ {
		outs := make([][][]byte, n)
		for i, s := range shards {
			s.SetPhase(b.Phase())
			if err := s.Compute(); err != nil {
				t.Fatalf("superstep %d shard %d compute: %v", step, i, err)
			}
			var err error
			if outs[i], err = s.Outbound(); err != nil {
				t.Fatalf("superstep %d shard %d outbound: %v", step, i, err)
			}
		}
		for d, s := range shards {
			var batches [][]byte
			for src := 0; src < n; src++ {
				if src != d {
					batches = append(batches, outs[src][d])
				}
			}
			if _, err := s.Deliver(batches); err != nil {
				t.Fatalf("superstep %d shard %d deliver: %v", step, d, err)
			}
		}
		reps := make([]engine.StepReport, n)
		for i, s := range shards {
			reps[i] = s.Barrier()
		}
		quiesced := b.Close(reps)
		if step+1 == captureAt {
			capture()
		}
		if quiesced {
			break
		}
	}
	return ckpts
}

func collectResult(t *testing.T, g *tgraph.Graph, shards []*core.Shard, opts core.Options) *core.Result {
	t.Helper()
	blobs := make([][]byte, len(shards))
	for i, s := range shards {
		b, err := s.EncodeOwnedStates()
		if err != nil {
			t.Fatalf("encode shard %d: %v", i, err)
		}
		blobs[i] = b
	}
	r, err := core.AssembleResult(g, opts.PayloadCodec, blobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func compareStates(t *testing.T, g *tgraph.Graph, got, want *core.Result) {
	t.Helper()
	for i := 0; i < g.NumVertices(); i++ {
		gs, ws := got.State(i), want.State(i)
		if (gs == nil) != (ws == nil) {
			t.Fatalf("vertex %d: state presence mismatch", i)
		}
		if gs == nil {
			continue
		}
		if !reflect.DeepEqual(gs.Parts(), ws.Parts()) {
			t.Errorf("vertex %d (%v):\n  cluster: %v\n  direct:  %v",
				i, g.VertexAt(i).ID, gs.Parts(), ws.Parts())
		}
	}
}

// TestShardMatchesCoreRun drives the cluster protocol over the transit graph
// and compares against core.Run with the same worker count: Deliver and Run's
// exchange go through one receive routine. PageRank makes the comparison
// float-order-sensitive.
func TestShardMatchesCoreRun(t *testing.T) {
	g := tgraph.TransitExample()
	for _, tc := range []struct {
		algo string
		p    algorithms.Params
	}{
		{algo: "sssp", p: algorithms.Params{Source: 0}},
		{algo: "eat", p: algorithms.Params{Source: 0}},
		{algo: "pr"},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			shards, opts := newTestShards(t, g, tc.algo, tc.p)
			driveShards(t, shards, opts, 0)
			got := collectResult(t, g, shards, opts)

			prog, ropts, err := algorithms.New(g, tc.algo, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			ropts.NumWorkers = testShards
			want, err := core.Run(g, prog, ropts)
			if err != nil {
				t.Fatal(err)
			}
			compareStates(t, g, got, want)
		})
	}
}

// TestShardDurableReplay checkpoints mid-run, finishes the run, then builds
// FRESH shards (a replacement process per shard), restores them from the
// checkpoint bytes and replays — final states must be identical.
func TestShardDurableReplay(t *testing.T) {
	g := tgraph.TransitExample()
	for _, tc := range []struct {
		algo string
		p    algorithms.Params
	}{
		{algo: "sssp", p: algorithms.Params{Source: 0}},
		{algo: "pr"},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			shards, opts := newTestShards(t, g, tc.algo, tc.p)
			ckpts := driveShards(t, shards, opts, 3)
			if ckpts == nil {
				t.Fatal("run ended before the capture point; checkpoint superstep too late")
			}
			want := collectResult(t, g, shards, opts)

			replay, _ := newTestShards(t, g, tc.algo, tc.p)
			for i, s := range replay {
				if err := s.Init(); err != nil {
					t.Fatal(err)
				}
				if err := s.RestoreDurable(ckpts[i]); err != nil {
					t.Fatalf("restore shard %d: %v", i, err)
				}
				if got := s.Superstep(); got != 3 {
					t.Fatalf("restored shard %d at superstep %d, want 3", i, got)
				}
			}
			driveShards(t, replay, opts, 0)
			got := collectResult(t, g, replay, opts)
			compareStates(t, g, got, want)
		})
	}
}

// TestShardGating pins what a shard refuses and what it no longer does: a
// master and aggregators are the barrier's to run, so SCC builds; a run
// nothing would end is refused by shard and barrier alike.
func TestShardGating(t *testing.T) {
	g := tgraph.TransitExample()
	prog, opts, err := algorithms.New(g, "sssp", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewShard(g, prog, opts, 0); err == nil {
		t.Error("implicit NumWorkers accepted")
	}
	bad := opts
	bad.NumWorkers = 2
	bad.ActivateAll = true
	if _, err := core.NewShard(g, prog, bad, 0); !errors.Is(err, engine.ErrBadConfig) {
		t.Errorf("ActivateAll without MaxSupersteps or a Master: %v, want ErrBadConfig", err)
	}
	if _, err := core.NewBarrier(bad, 0); !errors.Is(err, engine.ErrBadConfig) {
		t.Errorf("barrier for ActivateAll without MaxSupersteps or a Master: %v, want ErrBadConfig", err)
	}
	bad = opts
	bad.NumWorkers = 2
	if _, err := core.NewShard(g, prog, bad, 2); err == nil {
		t.Error("out-of-range shard accepted")
	}
	scc, sopts, err := algorithms.New(g, "scc", algorithms.Params{})
	if err != nil {
		t.Fatal(err)
	}
	sopts.NumWorkers = 2
	sh, err := core.NewShard(g, scc, sopts, 1)
	if err != nil {
		t.Fatalf("SCC's master and aggregators refused: %v", err)
	}
	sh.Close()
	if _, err := core.NewBarrier(sopts, 0); err != nil {
		t.Errorf("SCC's barrier: %v", err)
	}
}

// countingProgram is a WrapProgram wrapper that counts the vertex runs it
// passes through, keeping the checkpoint contract of what it wraps.
type countingProgram struct {
	engine.Program
	engine.Snapshotter
	runs int
}

func (p *countingProgram) Run(ctx *engine.Context, msgs []engine.Message) {
	p.runs++
	p.Program.Run(ctx, msgs)
}

// TestShardRunsWrappedProgram: Run and NewShard build their engines through
// one helper, so Options.WrapProgram wraps what a shard executes too, and
// wrapped shards compute what unwrapped ones do.
func TestShardRunsWrappedProgram(t *testing.T) {
	g := tgraph.TransitExample()
	p := algorithms.Params{Source: 0}
	wraps := make([]*countingProgram, testShards)
	shards := make([]*core.Shard, testShards)
	var opts core.Options
	for i := range shards {
		prog, o, err := algorithms.New(g, "sssp", p)
		if err != nil {
			t.Fatal(err)
		}
		o.NumWorkers = testShards
		o.WrapProgram = func(ep engine.Program) engine.Program {
			wraps[i] = &countingProgram{Program: ep, Snapshotter: ep.(engine.Snapshotter)}
			return wraps[i]
		}
		if shards[i], err = core.NewShard(g, prog, o, i); err != nil {
			t.Fatal(err)
		}
		defer shards[i].Close()
		opts = o
	}
	driveShards(t, shards, opts, 0)
	for i, w := range wraps {
		if w == nil || w.runs == 0 {
			t.Fatalf("shard %d did not run its wrapped program", i)
		}
	}
	opts.WrapProgram = nil
	want := collectResult(t, g, shards, opts)
	shards, opts = newTestShards(t, g, "sssp", p)
	driveShards(t, shards, opts, 0)
	compareStates(t, g, collectResult(t, g, shards, opts), want)
}

// TestSnapshotDecodeRejectsMalformedStates hands AssembleResult — the same
// decoder RestoreDurable uses — snapshots that are well-formed byte for byte
// but whose partition lists were never a state. PartitionedState.Set splices
// in place on the strength of "sorted, adjacent, covering, maximally fused",
// so each of these must be refused as corrupt rather than adopted.
func TestSnapshotDecodeRejectsMalformedStates(t *testing.T) {
	type part struct {
		iv  ival.Interval
		val any
	}
	g := tgraph.TransitExample()
	pc := codec.Int64{}
	// blob encodes one state for vertex 0 in the snapshot wire format
	// documented in shard.go.
	blob := func(life ival.Interval, parts []part) []byte {
		buf := []byte{1}                   // version
		buf = binary.AppendUvarint(buf, 1) // one state
		buf = binary.AppendUvarint(buf, 0) // vertex index
		buf = codec.AppendInterval(buf, life)
		buf = binary.AppendUvarint(buf, uint64(len(parts)))
		for _, p := range parts {
			buf = codec.AppendInterval(buf, p.iv)
			if p.val == nil {
				buf = append(buf, 0)
				continue
			}
			buf = pc.Append(append(buf, 1), p.val)
		}
		for c := 0; c < 7; c++ { // the runtime counters
			buf = binary.AppendUvarint(buf, 0)
		}
		return buf
	}
	life := ival.New(2, 10)
	one, two := int64(1), int64(2)

	good := []part{{ival.New(2, 4), one}, {ival.New(4, 10), two}}
	r, err := core.AssembleResult(g, pc, [][]byte{blob(life, good)}, nil)
	if err != nil {
		t.Fatalf("well-formed state refused: %v", err)
	}
	if got := r.State(0).NumParts(); got != 2 {
		t.Fatalf("well-formed state decoded to %d partitions, want 2", got)
	}

	for name, parts := range map[string][]part{
		"no partitions":       nil,
		"unfused equal":       {{ival.New(2, 4), one}, {ival.New(4, 10), one}},
		"unfused nil":         {{ival.New(2, 4), nil}, {ival.New(4, 10), nil}},
		"gap":                 {{ival.New(2, 4), one}, {ival.New(5, 10), two}},
		"overlap":             {{ival.New(2, 5), one}, {ival.New(4, 10), two}},
		"out of order":        {{ival.New(4, 10), two}, {ival.New(2, 4), one}},
		"empty partition":     {{ival.New(2, 4), one}, {ival.New(4, 4), two}, {ival.New(4, 10), one}},
		"starts before life":  {{ival.New(0, 4), one}, {ival.New(4, 10), two}},
		"ends after life":     {{ival.New(2, 4), one}, {ival.New(4, 12), two}},
		"stops short of life": {{ival.New(2, 4), one}, {ival.New(4, 8), two}},
		"unbounded tail":      {{ival.New(2, 4), one}, {ival.From(4), two}},
	} {
		_, err := core.AssembleResult(g, pc, [][]byte{blob(life, parts)}, nil)
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want codec.ErrCorrupt", name, err)
		}
	}
}
