package algorithms

import (
	"testing"

	"graphite/internal/core"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// tinyGraphs builds a set of small random temporal graphs with diverse
// lifespan characteristics for oracle validation.
func tinyGraphs(t *testing.T) []*tgraph.Graph {
	t.Helper()
	var gs []*tgraph.Graph
	profiles := []gen.Profile{
		gen.Tiny("t-unit", 40, 4, 6, gen.UnitLife),
		gen.Tiny("t-long", 40, 4, 8, gen.LongLife),
		gen.Tiny("t-mixed", 50, 5, 10, gen.MixedLife),
		gen.Tiny("t-full", 30, 3, 6, gen.FullLife),
	}
	churn := gen.Tiny("t-churn", 40, 4, 12, gen.LongLife)
	churn.VertexChurn = true
	profiles = append(profiles, churn)
	for _, p := range profiles {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := gen.Generate(p, seed)
			if err != nil {
				t.Fatalf("generate %s/%d: %v", p.Name, seed, err)
			}
			gs = append(gs, g)
		}
	}
	return gs
}

// stateAt reads a vertex's int64 state at time t, with dflt outside.
func stateAt(r *core.Result, v int, t ival.Time, dflt int64) int64 {
	x, ok := r.State(v).Get(t)
	if !ok {
		return dflt
	}
	if n, ok := x.(int64); ok {
		return n
	}
	return dflt
}

// TestICMMessagesFewerOnLongLifespans checks the paper's core performance
// claim at the primitive level: on long-lifespan graphs ICM sends far fewer
// messages than per-snapshot execution would.
func TestICMMessagesFewerOnLongLifespans(t *testing.T) {
	g, err := gen.Generate(gen.Tiny("msg-long", 60, 5, 16, gen.LongLife), 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunBFS(g, g.VertexAt(0).ID, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A per-snapshot run sends at least one message per (reached edge,
	// snapshot); ICM must stay well below the edge-instance count.
	var instances int64
	for i := 0; i < g.NumEdges(); i++ {
		instances += g.Edge(i).Lifespan.Intersect(ival.New(0, g.Horizon())).Length()
	}
	if r.Metrics.Messages*2 > instances {
		t.Errorf("ICM messages %d vs %d edge instances: expected sharing", r.Metrics.Messages, instances)
	}
}

// TestAblationPathsPreserveResults runs BFS and SSSP under every ablation
// switch, asserting results identical to the default path — the paper's
// claim that warp suppression "does not affect correctness" extended to
// every execution mode.
func TestAblationPathsPreserveResults(t *testing.T) {
	g, err := gen.Generate(gen.Tiny("abl", 40, 4, 8, gen.MixedLife), 5)
	if err != nil {
		t.Fatal(err)
	}
	source := g.VertexAt(0).ID
	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"no-warp", func(o *core.Options) { o.DisableWarp = true }},
		{"no-suppression", func(o *core.Options) { o.DisableSuppression = true }},
		{"no-combiner", func(o *core.Options) { o.DisableWarpCombiner = true; o.Combine = false }},
		{"eager-suppression", func(o *core.Options) { o.SuppressionThreshold = 0.01 }},
	}

	runBoth := func(mutate func(*core.Options)) (*core.Result, *core.Result) {
		bfs := &BFS{Source: source}
		bo := bfs.Options()
		bo.NumWorkers = 2
		mutate(&bo)
		br, err := runWith(g, bfs, bo)
		if err != nil {
			t.Fatalf("bfs: %v", err)
		}
		sssp := &SSSP{Source: source}
		so := sssp.Options()
		so.NumWorkers = 2
		mutate(&so)
		sr, err := runWith(g, sssp, so)
		if err != nil {
			t.Fatalf("sssp: %v", err)
		}
		return br, sr
	}

	wantBFS, wantSSSP := runBoth(func(*core.Options) {})
	for _, v := range variants {
		gotBFS, gotSSSP := runBoth(v.mutate)
		for i := 0; i < g.NumVertices(); i++ {
			for ts := g.Lifespan().Start; ts < g.Horizon(); ts++ {
				wb, _ := wantBFS.State(i).Get(ts)
				gb, _ := gotBFS.State(i).Get(ts)
				if wb != gb {
					t.Fatalf("%s: BFS state[%d]@%d = %v, want %v", v.name, i, ts, gb, wb)
				}
				ws, _ := wantSSSP.State(i).Get(ts)
				gs, _ := gotSSSP.State(i).Get(ts)
				if ws != gs {
					t.Fatalf("%s: SSSP state[%d]@%d = %v, want %v", v.name, i, ts, gs, ws)
				}
			}
		}
	}
}

// TestSliceConsistency checks the temporal-slice query: running BFS on the
// windowed sub-graph must agree, inside the window, with running it on the
// full graph (snapshot reducibility survives slicing).
func TestSliceConsistency(t *testing.T) {
	g, err := gen.Generate(gen.Tiny("slice", 50, 4, 12, gen.MixedLife), 13)
	if err != nil {
		t.Fatal(err)
	}
	window := ival.New(3, 9)
	sliced, err := tgraph.Slice(g, window)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	source := g.VertexAt(0).ID
	if sliced.IndexOf(source) < 0 {
		t.Skip("source not alive in the window for this seed")
	}
	full, err := RunBFS(g, source, 3)
	if err != nil {
		t.Fatal(err)
	}
	win, err := RunBFS(sliced, source, 3)
	if err != nil {
		t.Fatal(err)
	}
	for ts := window.Start; ts < window.End; ts++ {
		for i := 0; i < g.NumVertices(); i++ {
			id := g.VertexAt(i).ID
			si := sliced.IndexOf(id)
			var fGot, wGot any
			if x, ok := full.State(i).Get(ts); ok {
				fGot = x
			}
			if si >= 0 {
				if x, ok := win.State(si).Get(ts); ok {
					wGot = x
				}
			}
			if fGot != wGot && !(fGot == nil && wGot == nil) {
				t.Fatalf("v=%d t=%d: full=%v window=%v", id, ts, fGot, wGot)
			}
		}
	}
}

// TestPerfectSharingOnStaticGraphs pins the Sec. VII-B6 claim: when every
// entity spans the whole lifetime (usrn-like), ICM shares everything — one
// compute call per vertex per activation wave and one message per edge, no
// matter how many snapshots the graph has.
func TestPerfectSharingOnStaticGraphs(t *testing.T) {
	p := gen.Tiny("static", 64, 4, 32, gen.FullLife)
	p.PropSegments = 1 // time-invariant properties
	g, err := gen.Generate(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunBFS(g, g.VertexAt(0).ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex converges to a single partitioned state: BFS levels are
	// constant over the whole (shared) lifetime.
	if r.Stats.MaxPartitions != 1 {
		t.Errorf("static graph should keep 1 partition per vertex, saw %d", r.Stats.MaxPartitions)
	}
	// Messages are shared across all 32 snapshots: the total must be well
	// below one per (edge, snapshot).
	perSnapshot := int64(g.NumEdges()) * int64(g.SnapshotCount())
	if r.Metrics.Messages*8 > perSnapshot {
		t.Errorf("messages %d should be <12.5%% of %d edge-instances", r.Metrics.Messages, perSnapshot)
	}
}
