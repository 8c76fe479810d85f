package algorithms

import (
	"testing"

	"graphite/internal/core"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/ref"
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

func TestBFSMatchesSnapshotOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		source := g.VertexAt(0).ID
		r, err := RunBFS(g, source, 4)
		if err != nil {
			t.Fatalf("graph %d: RunBFS: %v", gi, err)
		}
		for ts := g.Lifespan().Start; ts < g.Horizon(); ts++ {
			want := ref.BFSLevels(g, ts, source)
			for v := 0; v < g.NumVertices(); v++ {
				got := stateAt(r, v, ts, Unreachable)
				if got != want[v] {
					t.Fatalf("graph %d t=%d vertex %d: BFS level %d, oracle %d", gi, ts, v, got, want[v])
				}
			}
		}
	}
}

func TestWCCMatchesSnapshotOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		r, err := RunWCC(g, 4)
		if err != nil {
			t.Fatalf("graph %d: RunWCC: %v", gi, err)
		}
		for ts := g.Lifespan().Start; ts < g.Horizon(); ts++ {
			want := ref.WCCLabels(g, ts)
			for v := 0; v < g.NumVertices(); v++ {
				got := stateAt(r, v, ts, ref.Unreachable)
				if got != want[v] {
					t.Fatalf("graph %d t=%d vertex %d: WCC label %d, oracle %d", gi, ts, v, got, want[v])
				}
			}
		}
	}
}

func TestSCCMatchesSnapshotOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		r, err := RunSCC(g, 4)
		if err != nil {
			t.Fatalf("graph %d: RunSCC: %v", gi, err)
		}
		for ts := g.Lifespan().Start; ts < g.Horizon(); ts++ {
			want := ref.SCCLabels(g, ts)
			for v := 0; v < g.NumVertices(); v++ {
				got := int64(-1)
				if x, ok := r.State(v).Get(ts); ok {
					if s, ok := x.(interface{ component() int64 }); ok {
						got = s.component()
					}
				}
				_ = got
				labels := SCCLabels(r, g.VertexAt(v).ID)
				got = -1
				for _, l := range labels {
					if l.Interval.Contains(ts) {
						got = l.Value
					}
				}
				if got != want[v] && !(want[v] == -1 && got == -1) {
					t.Fatalf("graph %d t=%d vertex %d: SCC label %d, oracle %d", gi, ts, v, got, want[v])
				}
			}
		}
	}
}

func TestPageRankMatchesSnapshotOracle(t *testing.T) {
	const iters = 5
	for gi, g := range tinyGraphs(t) {
		r, err := RunPageRank(g, iters, 4)
		if err != nil {
			t.Fatalf("graph %d: RunPageRank: %v", gi, err)
		}
		for ts := g.Lifespan().Start; ts < g.Horizon(); ts++ {
			want := ref.PageRank(g, ts, iters, 0.85)
			for v := 0; v < g.NumVertices(); v++ {
				if !g.VertexAt(v).Lifespan.Contains(ts) {
					continue
				}
				x, ok := r.State(v).Get(ts)
				if !ok {
					t.Fatalf("graph %d t=%d vertex %d: no rank state", gi, ts, v)
				}
				got := x.(float64)
				if diff := got - want[v]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("graph %d t=%d vertex %d: rank %g, oracle %g", gi, ts, v, got, want[v])
				}
			}
		}
	}
}

func TestSSSPMatchesTemporalOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		source := g.VertexAt(0).ID
		r, err := RunSSSP(g, source, 0, 4)
		if err != nil {
			t.Fatalf("graph %d: RunSSSP: %v", gi, err)
		}
		d := ref.SSSP(g, source, 0)
		for v := 0; v < g.NumVertices(); v++ {
			for ts := ival.Time(0); ts < d.Tmax; ts++ {
				if !g.VertexAt(v).Lifespan.Contains(ts) {
					continue
				}
				got := stateAt(r, v, ts, Unreachable)
				if got != d.Cost[v][ts] {
					t.Fatalf("graph %d vertex %d t=%d: cost %d, oracle %d", gi, v, ts, got, d.Cost[v][ts])
				}
			}
		}
	}
}

func TestEATMatchesTemporalOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		source := g.VertexAt(0).ID
		r, err := RunEAT(g, source, 0, 4)
		if err != nil {
			t.Fatalf("graph %d: RunEAT: %v", gi, err)
		}
		want := ref.EAT(g, source, 0)
		for v := 0; v < g.NumVertices(); v++ {
			got := EarliestArrival(r, g.VertexAt(v).ID)
			if got != want[v] {
				t.Fatalf("graph %d vertex %d: EAT %d, oracle %d", gi, v, got, want[v])
			}
		}
	}
}

func TestRHMatchesTemporalOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		source := g.VertexAt(0).ID
		r, err := RunRH(g, source, 0, 4)
		if err != nil {
			t.Fatalf("graph %d: RunRH: %v", gi, err)
		}
		want := ref.Reachable(g, source, 0)
		for v := 0; v < g.NumVertices(); v++ {
			if got := Reachable(r, g.VertexAt(v).ID); got != want[v] {
				t.Fatalf("graph %d vertex %d: reachable %v, oracle %v", gi, v, got, want[v])
			}
		}
	}
}

func TestFASTMatchesTemporalOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		source := g.VertexAt(0).ID
		r, err := RunFAST(g, source, 0, 4)
		if err != nil {
			t.Fatalf("graph %d: RunFAST: %v", gi, err)
		}
		want := ref.Fastest(g, source, 0)
		for v := 0; v < g.NumVertices(); v++ {
			got := FastestDuration(r, g.VertexAt(v).ID)
			if got != want[v] {
				t.Fatalf("graph %d vertex %d: duration %d, oracle %d", gi, v, got, want[v])
			}
		}
	}
}

func TestLDMatchesTemporalOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		target := g.VertexAt(g.NumVertices() - 1).ID
		deadline := g.Horizon()
		r, err := RunLD(g, target, deadline, 4)
		if err != nil {
			t.Fatalf("graph %d: RunLD: %v", gi, err)
		}
		want := ref.LatestDeparture(g, target, deadline)
		for v := 0; v < g.NumVertices(); v++ {
			got := LatestDeparture(r, g.VertexAt(v).ID)
			if got != want[v] {
				t.Fatalf("graph %d vertex %d: LD %d, oracle %d", gi, v, got, want[v])
			}
		}
	}
}

func TestTMSTIsAValidEarliestArrivalTree(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		source := g.VertexAt(0).ID
		r, err := RunTMST(g, source, 0, 4)
		if err != nil {
			t.Fatalf("graph %d: RunTMST: %v", gi, err)
		}
		eat := ref.EAT(g, source, 0)
		tree := TMSTTree(r)
		inTree := map[tgraph.VertexID]TreeEdge{}
		for _, te := range tree {
			inTree[te.Vertex] = te
		}
		for v := 0; v < g.NumVertices(); v++ {
			id := g.VertexAt(v).ID
			if id == source {
				continue
			}
			te, ok := inTree[id]
			if eat[v] == ref.Unreachable {
				if ok {
					t.Fatalf("graph %d: unreachable vertex %d in tree", gi, id)
				}
				continue
			}
			if !ok {
				t.Fatalf("graph %d: reachable vertex %d missing from tree", gi, id)
			}
			if te.Arrival != eat[v] {
				t.Fatalf("graph %d vertex %d: tree arrival %d, oracle EAT %d", gi, id, te.Arrival, eat[v])
			}
			// The parent hop must be feasible: departing the parent at some
			// d >= EAT(parent) over an alive edge arrives exactly at Arrival.
			pi := g.IndexOf(te.Parent)
			if pi < 0 || eat[pi] == ref.Unreachable {
				t.Fatalf("graph %d vertex %d: parent %d unreachable", gi, id, te.Parent)
			}
			feasible := false
			for _, ei := range g.OutEdges(pi) {
				e := g.Edge(int(ei))
				if e.Dst != id {
					continue
				}
				for d := e.Lifespan.Start; d < e.Lifespan.End; d++ {
					tt, _, ok := travelProps(e, d)
					if ok && d >= eat[pi] && d+tt == te.Arrival {
						feasible = true
					}
				}
			}
			if !feasible {
				t.Fatalf("graph %d vertex %d: no feasible parent hop from %d arriving at %d",
					gi, id, te.Parent, te.Arrival)
			}
		}
	}
}

func TestTCMatchesSnapshotOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		r, err := RunTC(g, 4)
		if err != nil {
			t.Fatalf("graph %d: RunTC: %v", gi, err)
		}
		for ts := g.Lifespan().Start; ts < g.Horizon(); ts++ {
			want := ref.Closures(g, ts)
			var wantTotal int64
			for v := 0; v < g.NumVertices(); v++ {
				wantTotal += want[v]
				var got int64
				if x, ok := r.State(v).Get(ts); ok {
					if s, ok := x.(tcVal); ok {
						got = s.Count
					}
				}
				if got != want[v] {
					t.Fatalf("graph %d t=%d vertex %d: closures %d, oracle %d", gi, ts, v, got, want[v])
				}
			}
			if got := TriangleTotal(r, ts); got != wantTotal/3 {
				t.Fatalf("graph %d t=%d: triangles %d, oracle %d", gi, ts, got, wantTotal/3)
			}
		}
	}
}

func TestLCCMatchesSnapshotOracle(t *testing.T) {
	for gi, g := range tinyGraphs(t) {
		r, err := RunLCC(g, 4)
		if err != nil {
			t.Fatalf("graph %d: RunLCC: %v", gi, err)
		}
		for ts := g.Lifespan().Start; ts < g.Horizon(); ts++ {
			counts, degs := ref.LCCCounts(g, ts)
			for v := 0; v < g.NumVertices(); v++ {
				want := 0.0
				if degs[v] >= 2 && counts[v] > 0 {
					want = float64(counts[v]) / float64(degs[v]*(degs[v]-1))
				}
				got := Coefficient(r, g.VertexAt(v).ID, ts)
				if diff := got - want; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("graph %d t=%d vertex %d: lcc %g, oracle %g (count %d deg %d)",
						gi, ts, v, got, want, counts[v], degs[v])
				}
			}
		}
	}
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
