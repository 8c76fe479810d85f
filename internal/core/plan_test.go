package core

import (
	"fmt"
	"reflect"
	"runtime/debug"
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

// checkPieceValues holds the value columns of pieces[lo:hi], the pieces of
// edge e, to the lookup they replaced: for every label slot, what the plan
// holds is what Props.ValueAt returns by label at the first, a middle and the
// last time-point of the piece — absence included, with a zero value and no
// stray mask bit behind it.
func checkPieceValues(p *scatterPlan, e *tgraph.Edge, labels []string, lo, hi int32) error {
	for k := lo; k < hi; k++ {
		piece := p.pieces[k]
		last := piece.End - 1
		if piece.End == ival.Infinity {
			last = piece.Start + 1<<40
		}
		for s := 0; s < p.slots; s++ {
			got, ok := p.values[int(k)*p.slots+s], p.present[k]&(1<<s) != 0
			if !ok && got != 0 {
				return fmt.Errorf("edge %d piece %v slot %d: absent but holds %d", e.ID, piece, s, got)
			}
			for _, t := range []ival.Time{piece.Start, piece.Start + (last-piece.Start)/2, last} {
				if want, wantOK := e.Props.ValueAt(labels[s], t); got != want || ok != wantOK {
					return fmt.Errorf("edge %d piece %v slot %d (%s): plan holds (%d, %v), ValueAt(%d) = (%d, %v)",
						e.ID, piece, s, labels[s], got, ok, t, want, wantOK)
				}
			}
		}
		if p.slots > 0 && p.present[k]>>p.slots != 0 {
			return fmt.Errorf("edge %d piece %v: mask %08b has bits past %d slots", e.ID, piece, p.present[k], p.slots)
		}
	}
	return nil
}

// checkPlanAgainstOracle compares the memoised flat plan of g under opts with
// the oracle tables: same targets in the same order per vertex, and for each
// target the same pieces and match intervals in the same order, each piece
// carrying the values ValueAt finds on it.
func checkPlanAgainstOracle(g *tgraph.Graph, opts Options) error {
	p := planFor(g, &opts)
	parts, match, targets := oracleTables(g, opts)
	if len(p.targetOff) != g.NumVertices()+1 {
		return fmt.Errorf("targetOff has %d entries for %d vertices", len(p.targetOff), g.NumVertices())
	}
	slots, masks := min(len(opts.PropLabels), maxPropSlots), 0
	if slots > 0 {
		masks = len(p.pieces)
	}
	if p.slots != slots || len(p.values) != len(p.pieces)*slots || len(p.present) != masks {
		return fmt.Errorf("%d labels: %d slots, %d values and %d masks over %d pieces",
			len(opts.PropLabels), p.slots, len(p.values), len(p.present), len(p.pieces))
	}
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
			if err := checkPieceValues(p, g.Edge(int(tg.edge)), opts.PropLabels, tg.lo, tg.hi); err != nil {
				return err
			}
		}
	}
	return checkPlanTiling(g, p, opts)
}

// checkPlanTiling holds the plan to its layout: the targets' piece ranges
// tile [0, len(pieces)) in target order, with no gap or overlap, so scatter
// streams one contiguous run per vertex; every edge is the target of one
// vertex per traversed direction, so an undirected plan holds each edge's
// pieces twice and any other plan once; and at names each edge's first
// target in that order.
func checkPlanTiling(g *tgraph.Graph, p *scatterPlan, opts Options) error {
	dirs := 1
	if opts.Undirected {
		dirs = 2
	}
	if len(p.targets) != dirs*g.NumEdges() || len(p.at) != g.NumEdges() {
		return fmt.Errorf("%d targets and %d first targets for %d edges over %d directions",
			len(p.targets), len(p.at), g.NumEdges(), dirs)
	}
	end, seen := int32(0), make([]int, g.NumEdges())
	for k, tg := range p.targets {
		if tg.lo != end || tg.hi < tg.lo {
			return fmt.Errorf("target %d (edge %d) holds pieces [%d, %d), the tiling is at %d", k, tg.edge, tg.lo, tg.hi, end)
		}
		end = tg.hi
		if seen[tg.edge] == 0 && p.at[tg.edge] != int32(k) {
			return fmt.Errorf("edge %d: first target %d, but target %d is its first", tg.edge, p.at[tg.edge], k)
		}
		seen[tg.edge]++
	}
	if int(end) != len(p.pieces) {
		return fmt.Errorf("targets tile %d pieces, plan holds %d", end, len(p.pieces))
	}
	for ei, n := range seen {
		if n != dirs {
			return fmt.Errorf("edge %d is the target of %d vertices over %d directions", ei, n, dirs)
		}
	}
	return nil
}

// planOptionShapes are the plan-relevant Options of the algorithm catalog:
// forward over the travel labels (SSSP, EAT, FAST, TMST, RH), reverse with
// the travel-time slack (LD), undirected (WCC) and all labels (BFS, PR,
// ...); plus a label no edge carries, reverse without slack and a slack label
// over all labels, which no catalog entry uses today. The rest
// are there for the value columns: the travel labels in the other order, with
// a label no edge carries between them, under both traversal directions, and
// more labels than a piece's mask has bits for.
func planOptionShapes() map[string]Options {
	travel := []string{tgraph.PropTravelTime, tgraph.PropTravelCost}
	nine := []string{tgraph.PropTravelCost, "a", "b", "zone", "c", "d", "e", "f", tgraph.PropTravelTime}
	return map[string]Options{
		"forward/labels-swapped":   {PropLabels: []string{tgraph.PropTravelCost, tgraph.PropTravelTime}},
		"forward/absent-between":   {PropLabels: []string{tgraph.PropTravelTime, "no-such-label", tgraph.PropTravelCost}},
		"undirected/travel-labels": {Undirected: true, PropLabels: travel},
		"slack/other-label":        {ScatterSlackLabel: tgraph.PropTravelTime, PropLabels: travel[1:]},
		"nine-labels":              {PropLabels: nine},
		"forward/travel-labels":    {PropLabels: travel},
		"reverse+slack":            {Reverse: true, ScatterSlackLabel: tgraph.PropTravelTime, PropLabels: travel},
		"undirected":               {Undirected: true},
		"absent-label":             {PropLabels: []string{"no-such-label"}},
		"all-labels":               {},
		"reverse":                  {Reverse: true},
		"slack/all-labels":         {ScatterSlackLabel: tgraph.PropTravelTime},
		"undirected+reverse":       {Undirected: true, Reverse: true, PropLabels: travel[:1]},
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
		e.Props.AddAll(p.label, []tgraph.PropEntry{{Interval: p.iv, Value: p.effect}})
	}
	return g
}

// tortureGraph is valid by the Builder's rules and hard on a cursor that
// walks entries and pieces together: unit-length pieces, value runs that
// touch and runs with a gap between them, a label missing on the first part
// of a lifespan and one missing on the last, a label missing entirely,
// lifespans and values that last till ∞, two labels changing at the same
// time-points, a unit-length edge, and an edge with no properties.
func tortureGraph(t testing.TB) *tgraph.Graph {
	t.Helper()
	tt, tc := tgraph.PropTravelTime, tgraph.PropTravelCost
	forever := ival.From(0)
	b := tgraph.NewBuilder(4, 5)
	for id := 0; id < 4; id++ {
		b.AddVertex(tgraph.VertexID(id), forever)
	}
	b.AddEdge(0, 0, 1, forever)
	for _, p := range []struct {
		label string
		iv    ival.Interval
		value int64
	}{
		{tt, ival.New(0, 1), 1}, {tt, ival.New(1, 2), 2}, {tt, ival.New(2, 5), 3}, // touching, two of unit length
		{tt, ival.From(7), 4},                            // after a gap, till ∞
		{tc, ival.New(3, 4), 9}, {tc, ival.New(4, 7), 8}, // absent before 3; changes with tt at 7
		{tc, ival.New(7, 10), 7},                                 // absent from 10 on
		{"zone", ival.New(2, 5), 6}, {"zone", ival.New(5, 6), 5}, // same ends as tt's third run
	} {
		b.SetEdgeProp(0, p.label, p.iv, p.value)
	}
	b.AddEdge(1, 1, 2, ival.New(3, 4)) // one time-point, one label
	b.SetEdgeProp(1, tc, ival.New(3, 4), 2)
	b.AddEdge(2, 2, 3, ival.New(2, 12)) // time only at the very end, cost only at the very start
	b.SetEdgeProp(2, tt, ival.New(11, 12), 1)
	b.SetEdgeProp(2, tc, ival.New(2, 3), 1)
	b.AddEdge(3, 3, 0, ival.From(5)) // no properties
	b.AddEdge(4, 0, 2, ival.From(1)) // both labels over the whole lifespan, same ends
	b.SetEdgeProp(4, tt, ival.From(1), 2)
	b.SetEdgeProp(4, tc, ival.From(1), 3)
	return b.MustBuild()
}

func planTestGraphs(t testing.TB) map[string]*tgraph.Graph {
	t.Helper()
	graphs := map[string]*tgraph.Graph{
		"awkward": awkwardGraph(t),
		"torture": tortureGraph(t),
		"transit": tgraph.TransitExample(),
	}
	for _, p := range []gen.Profile{
		gen.Tiny("tiny-mixed", 40, 3, 12, gen.MixedLife),
		gen.TwitterLike(0.02),
		gen.USRNLike(0.02),
		gen.MAGLike(0.02),
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

// TestPlanKeyedByLabelOrder: a slot is a position in PropLabels, so two runs
// that declare the same labels in different orders must not share a plan —
// each would read the other's columns.
func TestPlanKeyedByLabelOrder(t *testing.T) {
	g := tortureGraph(t)
	timeFirst := planFor(g, &Options{PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost}})
	costFirst := planFor(g, &Options{PropLabels: []string{tgraph.PropTravelCost, tgraph.PropTravelTime}})
	if timeFirst == costFirst {
		t.Fatal("label orders share one plan")
	}
	if again := planFor(g, &Options{PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost}}); again != timeFirst {
		t.Fatal("the same label order built a second plan")
	}
	if !slices.Equal(timeFirst.pieces, costFirst.pieces) {
		t.Fatalf("label order moved the cuts: %v vs %v", timeFirst.pieces, costFirst.pieces)
	}
	differ := false
	for k := range timeFirst.pieces {
		a, b := timeFirst.values[2*k:2*k+2], costFirst.values[2*k:2*k+2]
		if a[0] != b[1] || a[1] != b[0] {
			t.Fatalf("piece %v: columns %v and %v are not each other's swap", timeFirst.pieces[k], a, b)
		}
		differ = differ || a[0] != a[1]
	}
	if !differ {
		t.Fatal("every piece has equal travel time and cost; the swap was not observable")
	}
}

// planEntries returns the keys memoised on g so far.
func planEntries(g *tgraph.Graph) []*planEntry {
	c := g.Derived(planCacheKey{}, newPlanCache).(*planCache)
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*planEntry(nil), c.entries...)
}

// TestPlanSharedByConcurrentRuns starts many runs at once on one graph whose
// plans are not built yet, under two plan keys: every result must equal the
// serial one over an equal graph, and the graph must end up with exactly one
// built plan per key that every runtime shares. The graph is a fresh one, or
// a live epoch whose predecessor has both plans, so the first runs race to
// build from its lineage, which must be released after. `make race` repeats
// it ten times under the detector.
func TestPlanSharedByConcurrentRuns(t *testing.T) {
	keys := []Options{
		{NumWorkers: 2, PayloadCodec: codec.Int64{}, PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost}},
		{NumWorkers: 2, PayloadCodec: codec.Int64{}, PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost}, Undirected: true},
	}
	fresh := func() *tgraph.Graph {
		g, err := gen.Generate(gen.Tiny("plan-conc", 120, 4, 16, gen.MixedLife), 11)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		return g
	}
	checkConcurrentFirstRuns(t, "fresh graph", fresh(), fresh(), keys)
	_, epoch := epochPair(t, gen.TwitterLike(0.05), 11, keys...)
	_, rebuilt := epochPair(t, gen.TwitterLike(0.05), 11)
	checkConcurrentFirstRuns(t, "patched epoch", epoch, rebuilt, keys)
	if epoch.Lineage() != nil {
		t.Error("patched epoch: lineage still held once both plans were built")
	}
}

func checkConcurrentFirstRuns(t *testing.T, name string, g, serialGraph *tgraph.Graph, keys []Options) {
	const perKey = 6
	source, deg := tgraph.VertexID(0), -1 // the source with the most out-edges
	for v := 0; v < g.NumVertices(); v++ {
		if d := len(g.OutEdges(v)); d > deg {
			source, deg = g.VertexAt(v).ID, d
		}
	}
	prog := func() Program { return &ssspGateProg{source: source, start: 0} }
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
	for k, opts := range keys {
		r, err := Run(serialGraph, prog(), opts)
		if err != nil {
			t.Fatalf("%s: serial run %d: %v", name, k, err)
		}
		serial[k] = states(r)
	}

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
			t.Fatalf("%s: concurrent run %d: %v", name, i, errs[i])
		}
		if !reflect.DeepEqual(got[i], serial[i%len(keys)]) {
			t.Errorf("%s: concurrent run %d differs from the serial run", name, i)
		}
		if plans[i] != plans[i%len(keys)] {
			t.Errorf("%s: run %d got its own plan; key %d was built more than once", name, i, i%len(keys))
		}
	}
	entries := planEntries(g)
	if len(entries) != len(keys) {
		t.Fatalf("%s: graph memoised %d plans, want one per key (%d)", name, len(entries), len(keys))
	}
	for k, ent := range entries {
		if ent.plan == nil || ent.plan != plans[0] && ent.plan != plans[1] {
			t.Errorf("%s: memoised plan %d is not the one the runs used", name, k)
		}
	}
}

// TestPlanAllocations pins the two allocation properties of the plan: a
// build — cold, or a live epoch's from its predecessor's plan — costs a fixed
// handful of objects whatever the graph size, and a memoised lookup — every
// newRuntime after a graph's first — costs none.
func TestPlanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	// AllocsPerRun counts the whole process's mallocs, and a build allocates
	// enough to start a collection, after which the runtime's `unique` cleanup
	// goroutine (there through package net) walks its maps with two objects
	// each: on a busy host it is scheduled inside the sample and a scale-0.2
	// build reads one object heavier. So the collector is off while a build is
	// sampled, and ten runs outweigh the one pass that may still be pending.
	sample := func(build func()) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(10, build)
	}
	shapes := planOptionShapes()
	for _, oname := range []string{"forward/travel-labels", "reverse+slack", "undirected", "all-labels"} {
		opts := shapes[oname]
		var cold, delta []float64
		for _, scale := range []gen.Scale{0.02, 0.2} {
			prev, g := epochPair(t, gen.TwitterLike(scale), 3, opts)
			key, base, from := opts.planKey(), planFor(prev, &opts), g.Lineage().Sources()
			cold = append(cold, sample(func() { buildScatterPlan(g, key, nil, nil) }))
			delta = append(delta, sample(func() { buildScatterPlan(g, key, base, from) }))

			newRuntime(g, &ssspGateProg{}, opts)
			if hot := testing.AllocsPerRun(20, func() { planFor(g, &opts) }); hot != 0 {
				t.Errorf("%s: memoised plan lookup allocates %.1f, want 0", oname, hot)
			}
		}
		// The plan, at, pieces, targets and targetOff; match under a
		// slack label; values and present under declared labels.
		for build, n := range map[string][]float64{"cold": cold, "delta": delta} {
			if n[0] != n[1] || n[0] > 8 {
				t.Errorf("%s: %s build allocates %.0f objects at scale 0.02 and %.0f at 0.2; want equal and at most 8",
					oname, build, n[0], n[1])
			}
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
