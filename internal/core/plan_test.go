package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"graphite/internal/codec"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// ---- reference oracle ----
//
// The per-edge derivation the flat plan replaced, kept as the test reference:
// one partition per edge from a fresh bounds slice and a general sort, match
// intervals translated piece by piece, and far endpoints looked up by vertex
// id rather than read from the graph's endpoint index.

func edgePartition(e *tgraph.Edge, labels []string) []ival.Interval {
	bounds := []ival.Time{e.Lifespan.Start, e.Lifespan.End}
	add := func(entries []tgraph.PropEntry) {
		for _, p := range entries {
			x := p.Interval.Intersect(e.Lifespan)
			if !x.IsEmpty() {
				bounds = append(bounds, x.Start, x.End)
			}
		}
	}
	if len(labels) == 0 {
		for _, entries := range e.Props.All() {
			add(entries)
		}
	} else {
		for _, l := range labels {
			add(e.Props.Entries(l))
		}
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	var parts []ival.Interval
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		parts = append(parts, ival.New(bounds[i], bounds[i+1]))
	}
	return parts
}

type oracleTarget struct{ edge, dst int32 }

func oracleTables(g *tgraph.Graph, opts Options) (parts, match [][]ival.Interval, targets [][]oracleTarget) {
	parts = make([][]ival.Interval, g.NumEdges())
	match = make([][]ival.Interval, g.NumEdges())
	targets = make([][]oracleTarget, g.NumVertices())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		parts[i] = edgePartition(e, opts.PropLabels)
		match[i] = parts[i]
		if opts.ScatterSlackLabel != "" {
			m := make([]ival.Interval, len(parts[i]))
			for k, piece := range parts[i] {
				slack, _ := e.Props.ValueAt(opts.ScatterSlackLabel, piece.Start)
				m[k] = piece.Translate(slack)
			}
			match[i] = m
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !opts.Reverse || opts.Undirected {
			for _, ei := range g.OutEdges(v) {
				far := g.Edge(int(ei)).Dst
				targets[v] = append(targets[v], oracleTarget{ei, int32(g.IndexOf(far))})
			}
		}
		if opts.Reverse || opts.Undirected {
			for _, ei := range g.InEdges(v) {
				far := g.Edge(int(ei)).Src
				targets[v] = append(targets[v], oracleTarget{ei, int32(g.IndexOf(far))})
			}
		}
	}
	return parts, match, targets
}

// checkPlanAgainstOracle compares the memoised flat plan of g under opts with
// the oracle tables: same targets in the same order per vertex, and for each
// target the same pieces and match intervals in the same order.
func checkPlanAgainstOracle(g *tgraph.Graph, opts Options) error {
	p := planFor(g, &opts)
	parts, match, targets := oracleTables(g, opts)
	if len(p.targetOff) != g.NumVertices()+1 {
		return fmt.Errorf("targetOff has %d entries for %d vertices", len(p.targetOff), g.NumVertices())
	}
	refs := 0
	for v := 0; v < g.NumVertices(); v++ {
		got := p.targetsOf(v)
		if len(got) != len(targets[v]) {
			return fmt.Errorf("vertex %d: %d targets, oracle has %d", v, len(got), len(targets[v]))
		}
		for k, tg := range got {
			want := targets[v][k]
			if tg.edge != want.edge || tg.dst != want.dst {
				return fmt.Errorf("vertex %d target %d: edge %d → %d, oracle edge %d → %d",
					v, k, tg.edge, tg.dst, want.edge, want.dst)
			}
			if !slices.Equal(p.pieces[tg.lo:tg.hi], parts[tg.edge]) {
				return fmt.Errorf("edge %d pieces = %v, oracle %v", tg.edge, p.pieces[tg.lo:tg.hi], parts[tg.edge])
			}
			if !slices.Equal(p.match[tg.lo:tg.hi], match[tg.edge]) {
				return fmt.Errorf("edge %d match = %v, oracle %v", tg.edge, p.match[tg.lo:tg.hi], match[tg.edge])
			}
			// The hull is the tightest interval scatter may skip the edge by:
			// it covers every match interval and touches the outermost two.
			var hull ival.Interval
			for _, m := range match[tg.edge] {
				hull = hull.Union(m)
			}
			if tg.hull != hull {
				return fmt.Errorf("edge %d hull = %v, oracle %v over %v", tg.edge, tg.hull, hull, match[tg.edge])
			}
			refs += len(parts[tg.edge])
		}
	}
	// Every edge is some vertex's target, once per traversed direction, so
	// the flat array holds exactly the oracle's pieces and nothing else.
	dirs := 1
	if opts.Undirected {
		dirs = 2
	}
	if refs != dirs*len(p.pieces) {
		return fmt.Errorf("targets reference %d pieces over %d directions, plan holds %d", refs, dirs, len(p.pieces))
	}
	return nil
}

// planOptionShapes are the plan-relevant Options of the algorithm catalog:
// forward over the travel labels (SSSP, EAT, FAST, TMST, RH), reverse with
// the travel-time slack (LD), undirected (WCC), a label no edge carries
// (FFM), and all labels (BFS, PR, ...); plus reverse without slack and a
// slack label over all labels, which no catalog entry uses today.
func planOptionShapes() map[string]Options {
	travel := []string{tgraph.PropTravelTime, tgraph.PropTravelCost}
	return map[string]Options{
		"forward/travel-labels": {PropLabels: travel},
		"reverse+slack":         {Reverse: true, ScatterSlackLabel: tgraph.PropTravelTime, PropLabels: travel},
		"undirected":            {Undirected: true},
		"absent-label":          {PropLabels: []string{"ffm-none"}},
		"all-labels":            {},
		"reverse":               {Reverse: true},
		"slack/all-labels":      {ScatterSlackLabel: tgraph.PropTravelTime},
		"undirected+reverse":    {Undirected: true, Reverse: true, PropLabels: travel[:1]},
	}
}

// awkwardGraph has what the generators never produce: an edge with no
// properties, a vertex with no edges at all, and — written past the Builder's
// validation, as a decoded file could carry them — property entries that
// overlap within a label, stick out of the edge lifespan on both sides, lie
// wholly outside it, and disagree between labels.
func awkwardGraph(t testing.TB) *tgraph.Graph {
	t.Helper()
	b := tgraph.NewBuilder(4, 3)
	for id := 0; id < 4; id++ {
		b.AddVertex(tgraph.VertexID(10*id), ival.New(0, 40))
	}
	b.AddEdge(0, 0, 10, ival.New(5, 25))
	b.AddEdge(1, 10, 20, ival.New(0, 40)) // no properties
	b.AddEdge(2, 0, 20, ival.New(3, 40))
	b.SetEdgeProp(2, tgraph.PropTravelTime, ival.New(3, 40), 4)
	g := b.MustBuild() // vertex 30 has no targets in any direction
	e := g.Edge(0)
	for _, p := range []struct {
		label  string
		iv     ival.Interval
		effect int64
	}{
		{tgraph.PropTravelTime, ival.New(0, 9), 2},   // starts before the lifespan
		{tgraph.PropTravelTime, ival.New(7, 12), 3},  // overlaps the previous entry
		{tgraph.PropTravelTime, ival.New(20, 31), 5}, // ends after the lifespan
		{tgraph.PropTravelTime, ival.New(30, 38), 7}, // wholly outside
		{tgraph.PropTravelCost, ival.New(8, 21), 1},  // boundaries of its own
		{"zone", ival.New(5, 25), 9},                 // exactly the lifespan
		{"zone", ival.New(12, 12), 9},                // empty
	} {
		e.Props.Add(p.label, tgraph.PropEntry{Interval: p.iv, Value: p.effect})
	}
	return g
}

func planTestGraphs(t testing.TB) map[string]*tgraph.Graph {
	t.Helper()
	graphs := map[string]*tgraph.Graph{
		"awkward": awkwardGraph(t),
		"transit": tgraph.TransitExample(),
	}
	for _, p := range []gen.Profile{
		gen.Tiny("tiny-mixed", 40, 3, 12, gen.MixedLife),
		gen.TwitterLike(0.02),
		gen.USRNLike(0.02),
		gen.SkewedLike(0.05),
	} {
		g, err := gen.Generate(p, 7)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Name, err)
		}
		graphs[p.Name] = g
	}
	return graphs
}

func TestPlanMatchesOracle(t *testing.T) {
	for gname, g := range planTestGraphs(t) {
		for oname, opts := range planOptionShapes() {
			if err := checkPlanAgainstOracle(g, opts); err != nil {
				t.Errorf("%s under %s: %v", gname, oname, err)
			}
		}
	}
}

func TestPlanSplitsAtPropertyBounds(t *testing.T) {
	b := tgraph.NewBuilder(2, 1)
	b.AddVertex(0, ival.New(0, 10)).AddVertex(1, ival.New(0, 10))
	b.AddEdge(0, 0, 1, ival.New(0, 10))
	b.SetEdgeProp(0, "w", ival.New(2, 5), 1)
	b.SetEdgeProp(0, "w", ival.New(5, 9), 2)
	g := b.MustBuild()
	p := planFor(g, &Options{})
	want := []ival.Interval{ival.New(0, 2), ival.New(2, 5), ival.New(5, 9), ival.New(9, 10)}
	if !slices.Equal(p.pieces, want) {
		t.Fatalf("pieces = %v, want %v", p.pieces, want)
	}
	if tg := p.targetsOf(0); len(tg) != 1 || tg[0] != (target{edge: 0, dst: 1, lo: 0, hi: 4, hull: ival.New(0, 10)}) {
		t.Fatalf("targets of vertex 0 = %+v", tg)
	}
	if tg := p.targetsOf(1); len(tg) != 0 {
		t.Fatalf("targets of vertex 1 = %+v, want none", tg)
	}
	// Restricting to an absent label keeps the lifespan whole.
	p = planFor(g, &Options{PropLabels: []string{"other"}})
	if len(p.pieces) != 1 || p.pieces[0] != ival.New(0, 10) {
		t.Fatalf("filtered pieces = %v", p.pieces)
	}
	// A slack label translates the trigger, not the piece.
	p = planFor(g, &Options{ScatterSlackLabel: "w"})
	wantMatch := []ival.Interval{ival.New(0, 2), ival.New(3, 6), ival.New(7, 11), ival.New(9, 10)}
	if !slices.Equal(p.match, wantMatch) || !slices.Equal(p.pieces, want) {
		t.Fatalf("slack: pieces = %v match = %v, want %v / %v", p.pieces, p.match, want, wantMatch)
	}
	if hull := p.targetsOf(0)[0].hull; hull != ival.New(0, 11) {
		t.Fatalf("slack: hull = %v, want the translated pieces' cover [0, 11)", hull)
	}
}

// planEntries returns the keys memoised on g so far.
func planEntries(g *tgraph.Graph) []*planEntry {
	c := g.Derived(planCacheKey{}, newPlanCache).(*planCache)
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*planEntry(nil), c.entries...)
}

// TestPlanSharedByConcurrentRuns starts many runs on one fresh graph at once,
// under two plan keys: every result must equal the serial one, and the graph
// must end up with exactly one built plan per key that every runtime shares.
// `make race` repeats it ten times under the detector.
func TestPlanSharedByConcurrentRuns(t *testing.T) {
	const perKey = 6
	p := gen.Tiny("plan-conc", 120, 4, 16, gen.MixedLife)
	build := func() *tgraph.Graph {
		g, err := gen.Generate(p, 11)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		return g
	}
	keys := []Options{
		{NumWorkers: 2, PayloadCodec: codec.Int64{}, PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost}},
		{NumWorkers: 2, PayloadCodec: codec.Int64{}, PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost}, Undirected: true},
	}
	prog := func() Program { return &ssspGateProg{source: 0, start: 0} }
	states := func(r *Result) [][]string {
		out := make([][]string, r.Graph.NumVertices())
		for i := range out {
			for _, part := range r.State(i).Parts() {
				out[i] = append(out[i], fmt.Sprintf("%v=%v", part.Interval, part.Value))
			}
		}
		return out
	}

	serial := make([][][]string, len(keys))
	serialGraph := build()
	for k, opts := range keys {
		r, err := Run(serialGraph, prog(), opts)
		if err != nil {
			t.Fatalf("serial run %d: %v", k, err)
		}
		serial[k] = states(r)
	}

	g := build()
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([][][]string, perKey*len(keys))
	plans := make([]*scatterPlan, perKey*len(keys))
	errs := make([]error, perKey*len(keys))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := keys[i%len(keys)]
			<-start
			plans[i] = newRuntime(g, prog(), opts).plan
			r, err := Run(g, prog(), opts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = states(r)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], serial[i%len(keys)]) {
			t.Errorf("concurrent run %d differs from the serial run", i)
		}
		if plans[i] != plans[i%len(keys)] {
			t.Errorf("run %d got its own plan; key %d was built more than once", i, i%len(keys))
		}
	}
	entries := planEntries(g)
	if len(entries) != len(keys) {
		t.Fatalf("graph memoised %d plans, want one per key (%d)", len(entries), len(keys))
	}
	for k, ent := range entries {
		if ent.plan == nil || ent.plan != plans[0] && ent.plan != plans[1] {
			t.Errorf("memoised plan %d is not the one the runs used", k)
		}
	}
}

// TestPlanAllocations pins the two allocation properties of the plan: the
// cold build costs a fixed handful of objects whatever the graph size, and a
// memoised lookup — every newRuntime after a graph's first — costs none.
func TestPlanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	shapes := planOptionShapes()
	for _, oname := range []string{"forward/travel-labels", "reverse+slack", "undirected", "all-labels"} {
		opts := shapes[oname]
		var cold []float64
		for _, scale := range []gen.Scale{0.02, 0.2} {
			g, err := gen.Generate(gen.TwitterLike(scale), 3)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			key := planKey{labels: opts.PropLabels, slackLabel: opts.ScatterSlackLabel,
				reverse: opts.Reverse, undirected: opts.Undirected}
			cold = append(cold, testing.AllocsPerRun(3, func() { buildScatterPlan(g, key) }))

			newRuntime(g, &ssspGateProg{}, opts)
			if hot := testing.AllocsPerRun(20, func() { planFor(g, &opts) }); hot != 0 {
				t.Errorf("%s: memoised plan lookup allocates %.1f, want 0", oname, hot)
			}
		}
		if cold[0] != cold[1] || cold[0] > 6 {
			t.Errorf("%s: cold build allocates %.0f objects at scale 0.02 and %.0f at 0.2; want equal and at most 6",
				oname, cold[0], cold[1])
		}
	}
}

// BenchmarkNewRuntime measures what a run pays before its first superstep:
// cold builds the plan (the graph's memo is emptied every iteration),
// memoised finds it on the graph.
func BenchmarkNewRuntime(b *testing.B) {
	g, err := gen.Generate(gen.TwitterLike(1), 1)
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	opts := Options{PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost}}
	prog := &ssspGateProg{}
	cache := g.Derived(planCacheKey{}, newPlanCache).(*planCache)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache.entries = nil
			benchRuntime = newRuntime(g, prog, opts)
		}
	})
	b.Run("memoised", func(b *testing.B) {
		b.ReportAllocs()
		benchRuntime = newRuntime(g, prog, opts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchRuntime = newRuntime(g, prog, opts)
		}
	})
}

var benchRuntime *runtime
