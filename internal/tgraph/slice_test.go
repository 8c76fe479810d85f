package tgraph

import (
	"testing"

	ival "graphite/internal/interval"
)

func TestSliceClipsAndDrops(t *testing.T) {
	g := TransitExample()
	s, err := Slice(g, ival.New(0, 5))
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if s.NumVertices() != 6 {
		t.Fatalf("vertices = %d, want 6 (perpetual lifespans clip, not drop)", s.NumVertices())
	}
	// Edges fully outside [0,5) vanish: B→E [8,9) and C→E [5,6).
	if s.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4: %v", s.NumEdges(), s)
	}
	// The A→B edge clips to [3,5) and loses its second cost value.
	var ab *Edge
	for i := 0; i < s.NumEdges(); i++ {
		if s.Edge(i).ID == 0 {
			ab = s.Edge(i)
		}
	}
	if ab == nil || ab.Lifespan != ival.New(3, 5) {
		t.Fatalf("A→B clip wrong: %+v", ab)
	}
	if entries := ab.Props.Entries(PropTravelCost); len(entries) != 1 || entries[0].Value != 4 {
		t.Fatalf("A→B cost entries = %v", entries)
	}
	// Every vertex lifespan is inside the window.
	for i := 0; i < s.NumVertices(); i++ {
		if !ival.New(0, 5).ContainsInterval(s.VertexAt(i).Lifespan) {
			t.Fatalf("vertex %d outside window: %v", s.VertexAt(i).ID, s.VertexAt(i).Lifespan)
		}
	}
}

func TestSliceDropsIsolatedWindow(t *testing.T) {
	b := NewBuilder(2, 1)
	b.AddVertex(1, ival.New(0, 3))
	b.AddVertex(2, ival.New(5, 9))
	b.AddEdge(1, 1, 1, ival.New(0, 3))
	g := b.MustBuild()
	s, err := Slice(g, ival.New(4, 10))
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if s.NumVertices() != 1 || s.NumEdges() != 0 {
		t.Fatalf("slice = %v, want vertex 2 only", s)
	}
	if s.Vertex(2) == nil || s.Vertex(2).Lifespan != ival.New(5, 9) {
		t.Fatalf("vertex 2 wrong: %+v", s.Vertex(2))
	}
}

func TestVertexHistory(t *testing.T) {
	g := TransitExample()
	h := g.VertexHistory(0) // A: out-edges to B [3,6), C [1,2), D [4,5)
	if h == nil || h.ID != 0 {
		t.Fatalf("history = %+v", h)
	}
	// Degree timeline: [0,1):0 [1,2):1 [2,3):0 [3,4):1 [4,5):2 [5,6):1 [6,∞):0.
	want := []DegreePoint{
		{ival.New(0, 1), 0},
		{ival.New(1, 2), 1},
		{ival.New(2, 3), 0},
		{ival.New(3, 4), 1},
		{ival.New(4, 5), 2},
		{ival.New(5, 6), 1},
		{ival.From(6), 0},
	}
	if len(h.OutDegree) != len(want) {
		t.Fatalf("out-degree profile = %v, want %v", h.OutDegree, want)
	}
	for i := range want {
		if h.OutDegree[i] != want[i] {
			t.Fatalf("out-degree profile[%d] = %v, want %v", i, h.OutDegree[i], want[i])
		}
	}
	if len(h.InDegree) != 1 || h.InDegree[0].Degree != 0 {
		t.Fatalf("A has no in-edges: %v", h.InDegree)
	}
	if g.VertexHistory(99) != nil {
		t.Fatalf("absent vertex should return nil")
	}
}

// sliceOracle is Slice as it was before the direct clip: every vertex, edge
// and property entry re-ingested, clipped, through a validating Builder. It
// is the reference the clip is held to, and — over the universe window — a
// full re-validation of any graph.
func sliceOracle(g *Graph, window ival.Interval) (*Graph, error) {
	b := NewBuilder(g.NumVertices(), g.NumEdges())
	for i := range g.vertices {
		v := &g.vertices[i]
		life := v.Lifespan.Intersect(window)
		if life.IsEmpty() {
			continue
		}
		b.AddVertex(v.ID, life)
		for label, entries := range v.Props.All() {
			for _, p := range entries {
				if x := p.Interval.Intersect(window); !x.IsEmpty() {
					b.SetVertexProp(v.ID, label, x, p.Value)
				}
			}
		}
	}
	for i := range g.edges {
		e := &g.edges[i]
		life := e.Lifespan.Intersect(window)
		if life.IsEmpty() {
			continue
		}
		b.AddEdge(e.ID, e.Src, e.Dst, life)
		for label, entries := range e.Props.All() {
			for _, p := range entries {
				if x := p.Interval.Intersect(window); !x.IsEmpty() {
					b.SetEdgeProp(e.ID, label, x, p.Value)
				}
			}
		}
	}
	return b.Build()
}

// checkSlice holds Slice(g, window) to the oracle, to a clean re-validation
// of its own output, and to answering id lookups for exactly its vertices.
func checkSlice(t testing.TB, g *Graph, window ival.Interval) *Graph {
	t.Helper()
	s, err := Slice(g, window)
	if err != nil {
		t.Fatalf("Slice(%v): %v", window, err)
	}
	want, err := sliceOracle(g, window)
	if err != nil {
		t.Fatalf("oracle(%v): %v", window, err)
	}
	if err := Equal(s, want); err != nil {
		t.Fatalf("Slice(%v) differs from the Builder derivation: %v", window, err)
	}
	again, err := sliceOracle(s, ival.Universe)
	if err != nil {
		t.Fatalf("Slice(%v) does not re-validate: %v", window, err)
	}
	if err := Equal(s, again); err != nil {
		t.Fatalf("Slice(%v) changes under re-validation: %v", window, err)
	}
	for i := range g.vertices {
		id := g.vertices[i].ID
		if got, want := s.IndexOf(id), want.IndexOf(id); got != want {
			t.Fatalf("Slice(%v).IndexOf(%d) = %d, want %d", window, id, got, want)
		}
	}
	// What a window view asks of the graph instead of slicing it.
	if got := g.HorizonIn(window); got != s.Horizon() {
		t.Fatalf("HorizonIn(%v) = %d, the slice's horizon is %d", window, got, s.Horizon())
	}
	if got := g.NumVerticesIn(window); got != s.NumVertices() {
		t.Fatalf("NumVerticesIn(%v) = %d, the slice keeps %d vertices", window, got, s.NumVertices())
	}
	for r := 1; r < s.NumVertices(); r++ {
		if a, b := s.vertices[s.IndexByRank(r-1)].ID, s.vertices[s.IndexByRank(r)].ID; a >= b {
			t.Fatalf("Slice(%v): rank %d holds id %d, rank %d id %d", window, r-1, a, r, b)
		}
	}
	return s
}

func TestSliceMatchesOracleOnArbitraryGraphs(t *testing.T) {
	windows := []ival.Interval{
		ival.Universe, ival.New(0, 1), ival.New(0, 25), ival.New(25, 60), ival.New(40, 41),
		ival.From(30), ival.From(200), ival.New(7, 7), ival.New(9, 2), ival.New(-5, 20),
	}
	for name, g := range snapshotCases(t) {
		for _, w := range windows {
			s := checkSlice(t, g, w)
			if w == ival.Universe && s != g {
				t.Errorf("%s: the universe window must return the graph itself", name)
			}
		}
	}
	// Vertex ids out of dense order: the slice's index is filtered from a
	// permutation that is not the identity.
	b := NewBuilder(4, 3)
	b.AddVertex(30, ival.New(0, 4)).AddVertex(10, ival.New(2, 9)).AddVertex(20, ival.New(0, 9)).AddVertex(5, ival.New(6, 9))
	b.AddEdge(1, 10, 20, ival.New(2, 8)).AddEdge(2, 20, 5, ival.New(6, 9)).AddEdge(3, 30, 20, ival.New(1, 3))
	b.SetEdgeProp(1, "w", ival.New(2, 5), 1).SetEdgeProp(1, "w", ival.New(5, 8), 2)
	g := b.MustBuild()
	for _, w := range []ival.Interval{ival.New(4, 9), ival.New(0, 3), ival.New(3, 7), ival.New(0, 9), ival.New(0, 10)} {
		s := checkSlice(t, g, w)
		if same := w.ContainsInterval(g.Lifespan()); same != (s == g) {
			t.Errorf("window %v: returned the graph itself = %v, want %v", w, s == g, same)
		}
	}
}

// FuzzSlice clips seeded arbitrary graphs — sparse ids, unbounded lifespans,
// multi-label properties — to arbitrary windows, valid or not.
func FuzzSlice(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), int64(0), int64(10))
	f.Add(uint64(7), uint8(40), uint8(120), int64(10), int64(40))
	f.Add(uint64(13), uint8(1), uint8(255), int64(3), int64(4))
	f.Add(uint64(99), uint8(200), uint8(50), int64(60), int64(ival.Infinity))
	f.Add(uint64(5), uint8(30), uint8(90), int64(20), int64(5))
	f.Fuzz(func(t *testing.T, seed uint64, nv, ne uint8, start, end int64) {
		checkSlice(t, buildArbitrary(seed, int(nv), int(ne)), ival.New(ival.Time(start), ival.Time(end)))
	})
}

// TestAssembleAllocations: the construction tail shared by Build, Slice and
// ExtractPartition allocates the same few objects whatever the graph's size.
func TestAssembleAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: detector instrumentation inflates alloc counts")
	}
	allocs := func(nv, ne int) float64 {
		g := buildArbitrary(3, nv, ne)
		return testing.AllocsPerRun(10, func() {
			assemble(g.vertices, g.edges, g.srcIdx, g.dstIdx, g.vindex, g.vsorted)
		})
	}
	small, large := allocs(20, 60), allocs(200, 2000)
	if small != large || large > 6 {
		t.Errorf("assemble allocates %v objects for a small graph, %v for a large one; want equal and <= 6", small, large)
	}
}
