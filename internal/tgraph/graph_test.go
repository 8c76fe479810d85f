package tgraph

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	ival "graphite/internal/interval"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4, 4)
	b.AddVertex(1, ival.New(0, 10))
	b.AddVertex(2, ival.New(0, 10))
	b.AddVertex(3, ival.New(2, 8))
	b.AddVertex(4, ival.New(0, 10))
	b.AddEdge(10, 1, 2, ival.New(0, 10))
	b.AddEdge(11, 1, 3, ival.New(2, 8))
	b.AddEdge(12, 2, 4, ival.New(5, 10))
	b.AddEdge(13, 3, 4, ival.New(2, 4))
	b.SetEdgeProp(10, "w", ival.New(0, 5), 7)
	b.SetEdgeProp(10, "w", ival.New(5, 10), 9)
	b.SetVertexProp(1, "kind", ival.New(0, 10), 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildAndAccess(t *testing.T) {
	g := diamond(t)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("sizes wrong: %v", g)
	}
	if g.Lifespan() != ival.New(0, 10) {
		t.Errorf("lifespan = %v", g.Lifespan())
	}
	v := g.Vertex(3)
	if v == nil || v.Lifespan != ival.New(2, 8) {
		t.Fatalf("Vertex(3) = %+v", v)
	}
	if g.Vertex(99) != nil {
		t.Errorf("absent vertex should be nil")
	}
	if g.IndexOf(99) != -1 {
		t.Errorf("absent index should be -1")
	}
	i1 := g.IndexOf(1)
	if got := len(g.OutEdges(i1)); got != 2 {
		t.Errorf("out-degree of 1 = %d, want 2", got)
	}
	i4 := g.IndexOf(4)
	if got := len(g.InEdges(i4)); got != 2 {
		t.Errorf("in-degree of 4 = %d, want 2", got)
	}
	if got := g.OutDegreeAt(i1, 1); got != 1 {
		t.Errorf("OutDegreeAt(1,t=1) = %d, want 1 (edge 11 starts at 2)", got)
	}
	if got := g.InDegreeAt(i4, 3); got != 1 {
		t.Errorf("InDegreeAt(4,t=3) = %d, want 1", got)
	}
}

func TestPropsValueAt(t *testing.T) {
	g := diamond(t)
	e := g.Edge(0) // edge 10
	if v, ok := e.Props.ValueAt("w", 4); !ok || v != 7 {
		t.Errorf("w@4 = %d,%v want 7", v, ok)
	}
	if v, ok := e.Props.ValueAt("w", 5); !ok || v != 9 {
		t.Errorf("w@5 = %d,%v want 9", v, ok)
	}
	if _, ok := e.Props.ValueAt("missing", 5); ok {
		t.Errorf("missing label should not resolve")
	}
	if _, ok := g.Vertex(1).Props.ValueAt("kind", 10); ok {
		t.Errorf("t=10 is outside [0,10)")
	}
}

func TestConstraint1DuplicateIDs(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddVertex(1, ival.New(0, 5))
	b.AddVertex(1, ival.New(5, 9))
	if _, err := b.Build(); !errors.Is(err, ErrDuplicateVertex) {
		t.Errorf("want ErrDuplicateVertex, got %v", err)
	}

	b = NewBuilder(0, 0)
	b.AddVertex(1, ival.New(0, 9)).AddVertex(2, ival.New(0, 9))
	b.AddEdge(7, 1, 2, ival.New(0, 4))
	b.AddEdge(7, 1, 2, ival.New(4, 9))
	if _, err := b.Build(); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("want ErrDuplicateEdge, got %v", err)
	}
}

func TestConstraint2EdgeIntegrity(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddVertex(1, ival.New(0, 5))
	b.AddEdge(7, 1, 2, ival.New(0, 4))
	if _, err := b.Build(); !errors.Is(err, ErrDanglingEdge) {
		t.Errorf("want ErrDanglingEdge, got %v", err)
	}

	b = NewBuilder(0, 0)
	b.AddVertex(1, ival.New(0, 5)).AddVertex(2, ival.New(2, 5))
	b.AddEdge(7, 1, 2, ival.New(0, 4)) // starts before vertex 2 exists
	if _, err := b.Build(); !errors.Is(err, ErrEdgeOutlives) {
		t.Errorf("want ErrEdgeOutlives, got %v", err)
	}
}

func TestConstraint3PropertyIntegrity(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddVertex(1, ival.New(2, 5))
	b.SetVertexProp(1, "x", ival.New(0, 4), 1)
	if _, err := b.Build(); !errors.Is(err, ErrPropOutlives) {
		t.Errorf("want ErrPropOutlives, got %v", err)
	}

	b = NewBuilder(0, 0)
	b.AddVertex(1, ival.New(0, 10))
	b.SetVertexProp(1, "x", ival.New(0, 5), 1)
	b.SetVertexProp(1, "x", ival.New(4, 9), 2) // overlaps with different value
	if _, err := b.Build(); !errors.Is(err, ErrPropConflict) {
		t.Errorf("want ErrPropConflict, got %v", err)
	}

	b = NewBuilder(0, 0)
	b.SetVertexProp(1, "x", ival.New(0, 5), 1)
	if _, err := b.Build(); !errors.Is(err, ErrUnknownPropOwner) {
		t.Errorf("want ErrUnknownPropOwner, got %v", err)
	}
}

// TestPropConflictNamesOwner pins the conflict error text: the owner is only
// formatted once validation has failed, and must read as it always has.
func TestPropConflictNamesOwner(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddVertex(1, ival.New(0, 10)).AddVertex(2, ival.New(0, 10))
	b.AddEdge(7, 1, 2, ival.New(0, 10))
	b.SetEdgeProp(7, "w", ival.New(4, 9), 2).SetEdgeProp(7, "w", ival.New(0, 5), 1)
	_, err := b.Build()
	want := `tgraph: overlapping values for one property label (Definition 1): edge 7 label "w": [0, 5) and [4, 9)`
	if !errors.Is(err, ErrPropConflict) || err.Error() != want {
		t.Errorf("edge conflict: got %v, want %s", err, want)
	}

	b = NewBuilder(0, 0)
	b.AddVertex(3, ival.New(0, 10))
	b.SetVertexProp(3, "x", ival.New(0, 5), 1).SetVertexProp(3, "x", ival.New(4, 9), 1)
	_, err = b.Build()
	want = `tgraph: overlapping values for one property label (Definition 1): vertex 3 label "x": [0, 5) and [4, 9)`
	if !errors.Is(err, ErrPropConflict) || err.Error() != want {
		t.Errorf("vertex conflict: got %v, want %s", err, want)
	}
}

// TestSetPropsInBulk: a label's timeline handed over whole — Props.AddAll,
// built by Patch — makes the graph the Builder's entry-by-entry calls make,
// under the same checks.
func TestSetPropsInBulk(t *testing.T) {
	one := NewBuilder(2, 1)
	one.AddVertex(1, ival.New(0, 9)).AddVertex(2, ival.New(0, 9)).AddEdge(5, 1, 2, ival.New(1, 8))
	one.SetVertexProp(1, "b", ival.New(0, 4), 1).SetVertexProp(1, "b", ival.New(4, 9), 2).SetVertexProp(1, "a", ival.New(2, 3), 7)
	one.SetEdgeProp(5, "w", ival.New(5, 8), 3).SetEdgeProp(5, "w", ival.New(1, 5), 4) // out of order: Build sorts

	bulk := func(vp, ep map[string][]PropEntry) (*Graph, error) {
		vs := []Vertex{{ID: 1, Lifespan: ival.New(0, 9)}, {ID: 2, Lifespan: ival.New(0, 9)}}
		es := []Edge{{ID: 5, Src: 1, Dst: 2, Lifespan: ival.New(1, 8)}}
		for label, entries := range vp {
			vs[0].Props.AddAll(label, entries)
		}
		for label, entries := range ep {
			es[0].Props.AddAll(label, entries)
		}
		return Patch(nil, vs, es)
	}
	got, err := bulk(map[string][]PropEntry{"b": {{ival.New(0, 4), 1}, {ival.New(4, 9), 2}}, "a": {{ival.New(2, 3), 7}}},
		map[string][]PropEntry{"w": {{ival.New(5, 8), 3}, {ival.New(1, 5), 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(got, one.MustBuild()); err != nil {
		t.Fatalf("bulk-built graph differs: %v", err)
	}

	for name, tc := range map[string]struct {
		vp, ep map[string][]PropEntry
		want   error
	}{
		"vertex escapes": {vp: map[string][]PropEntry{"x": {{ival.New(0, 4), 1}, {ival.New(4, 12), 1}}}, want: ErrPropOutlives},
		"edge escapes":   {ep: map[string][]PropEntry{"x": {{ival.New(0, 4), 1}}}, want: ErrPropOutlives},
		"empty interval": {ep: map[string][]PropEntry{"x": {{ival.New(4, 4), 1}}}, want: ErrPropOutlives},
		"overlap":        {vp: map[string][]PropEntry{"x": {{ival.New(0, 4), 1}, {ival.New(3, 5), 1}}}, want: ErrPropConflict},
	} {
		if _, err := bulk(tc.vp, tc.ep); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", name, err, tc.want)
		}
	}
}

// TestIndexOfUnorderedIDs: ids added out of dense order are indexed for the
// built graph and, through the sorted index it carries, for its snapshot.
func TestIndexOfUnorderedIDs(t *testing.T) {
	ids := []VertexID{40, -3, 17, 8, 1 << 40}
	b := NewBuilder(len(ids), 0)
	for _, id := range ids {
		b.AddVertex(id, ival.New(0, 5))
	}
	g := b.MustBuild()
	// A decoded graph has no id map: it answers by searching the sorted
	// index the built graph wrote.
	decoded, err := ReadSnapshot(bytes.NewReader(EncodeSnapshot(g, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if err := Equal(g, decoded); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if g.IndexOf(id) != i || decoded.IndexOf(id) != i {
			t.Errorf("IndexOf(%d) = %d by map, %d by search; want %d", id, g.IndexOf(id), decoded.IndexOf(id), i)
		}
	}
	if g.IndexOf(9) != -1 || decoded.IndexOf(9) != -1 {
		t.Errorf("absent id found")
	}
}

func TestInvalidLifespan(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddVertex(1, ival.New(5, 5))
	if _, err := b.Build(); !errors.Is(err, ErrInvalidLifespan) {
		t.Errorf("want ErrInvalidLifespan, got %v", err)
	}
}

func TestSnapshotViews(t *testing.T) {
	g := diamond(t)
	s := g.SnapshotAt(3)
	nv, ne := s.NumActive()
	if nv != 4 || ne != 3 {
		t.Errorf("snapshot@3 = %d vertices, %d edges; want 4, 3", nv, ne)
	}
	s = g.SnapshotAt(9)
	nv, ne = s.NumActive()
	if nv != 3 || ne != 2 {
		t.Errorf("snapshot@9 = %d vertices, %d edges; want 3, 2", nv, ne)
	}
	var names []EdgeID
	s.OutEdges(g.IndexOf(1), func(e *Edge) { names = append(names, e.ID) })
	if len(names) != 1 || names[0] != 10 {
		t.Errorf("out edges of 1 @9 = %v, want [10]", names)
	}
	var in []EdgeID
	g.SnapshotAt(3).InEdges(g.IndexOf(4), func(e *Edge) { in = append(in, e.ID) })
	if len(in) != 1 || in[0] != 13 {
		t.Errorf("in edges of 4 @3 = %v, want [13]", in)
	}
}

func TestHorizonAndSnapshotCount(t *testing.T) {
	g := diamond(t)
	if g.Horizon() != 10 {
		t.Errorf("horizon = %d, want 10", g.Horizon())
	}
	if g.SnapshotCount() != 10 {
		t.Errorf("snapshots = %d, want 10", g.SnapshotCount())
	}
	// Unbounded lifespans: horizon is the largest finite boundary.
	b := NewBuilder(0, 0)
	b.AddVertex(1, ival.Universe).AddVertex(2, ival.Universe)
	b.AddEdge(1, 1, 2, ival.New(3, 7))
	g2 := b.MustBuild()
	if g2.Horizon() != 7 {
		t.Errorf("horizon = %d, want 7", g2.Horizon())
	}
}

// TestHorizonOnFirstRead: a graph derives its horizon on the first Horizon
// call, which concurrent readers share (`make race` runs this under the
// detector). Built, sliced and patched graphs read what the scan gives; a
// partition, and a partition mapped from its file, read the horizon they
// were given — their source's — not a scan of their own tables.
func TestHorizonOnFirstRead(t *testing.T) {
	scan := func(g *Graph) ival.Time { return g.computeHorizon(ival.Universe) }
	src := buildArbitrary(7, 40, 120)
	sliced, _ := Slice(src, ival.New(3, 30))
	patched, err := Patch(src, []Vertex{{ID: 1 << 40, Lifespan: ival.New(1, 999)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A transit shard whose own edges end before the whole graph's horizon.
	transit := TransitExample()
	shard := func() *Graph {
		pg, err := ExtractPartition(TransitExample(), transitAssign, 2)
		if err != nil {
			t.Fatal(err)
		}
		return pg
	}
	part := shard()
	if scan(part) == scan(transit) {
		t.Fatal("the transit shard scans to the whole graph's horizon; the partition cases check nothing")
	}
	path := filepath.Join(t.TempDir(), "g.gsn")
	if err := WriteSnapshotFile(path, shard()); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	built := buildArbitrary(7, 40, 120)
	for name, tc := range map[string]struct {
		g    *Graph
		want ival.Time
	}{
		"built":     {built, scan(built)},
		"sliced":    {sliced, scan(sliced)},
		"patched":   {patched, scan(patched)},
		"partition": {part, scan(transit)},
		"mapped":    {mapped.Graph, scan(transit)},
	} {
		got := make([]ival.Time, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = tc.g.Horizon()
			}()
		}
		wg.Wait()
		for i, h := range got {
			if h != tc.want {
				t.Errorf("%s: reader %d got horizon %d, want %d", name, i, h, tc.want)
			}
		}
	}
}

func TestCharacteristics(t *testing.T) {
	g := diamond(t)
	c := g.ComputeCharacteristics()
	if c.IntervalV != 4 || c.IntervalE != 4 {
		t.Errorf("interval sizes wrong: %+v", c)
	}
	if c.Snapshots != 10 {
		t.Errorf("snapshots = %d", c.Snapshots)
	}
	// Active vertices: v3 only in [2,8) so largest snapshot has all 4.
	if c.LargestSnapV != 4 {
		t.Errorf("largest snap V = %d", c.LargestSnapV)
	}
	// Edge activity: [0,2):1, [2,4):3, [4,5):2, [5,8):3, [8,10):2.
	if c.LargestSnapE != 3 {
		t.Errorf("largest snap E = %d", c.LargestSnapE)
	}
	if c.MultiSnapV != 4*10-4 { // v3 misses 4 of 10 snapshots
		t.Errorf("multi-snap V = %d, want 36", c.MultiSnapV)
	}
	wantE := int64(10 + 6 + 5 + 2) // lifespan lengths of the 4 edges
	if c.MultiSnapE != wantE {
		t.Errorf("multi-snap E = %d, want %d", c.MultiSnapE, wantE)
	}
	if c.AvgVertexLife != (10+10+6+10)/4.0 {
		t.Errorf("avg vertex life = %v", c.AvgVertexLife)
	}
	if c.AvgEdgeLife != (10+6+5+2)/4.0 {
		t.Errorf("avg edge life = %v", c.AvgEdgeLife)
	}
	if c.TransformedV <= c.IntervalV || c.TransformedE <= c.IntervalE {
		t.Errorf("transformed graph should be larger: %+v", c)
	}
}

func TestMemoryFootprints(t *testing.T) {
	g := diamond(t)
	if g.MemoryFootprint() <= 0 {
		t.Fatalf("interval footprint must be positive")
	}
	if g.LargestSnapshotFootprint() <= 0 {
		t.Fatalf("snapshot footprint must be positive")
	}
	if g.LargestSnapshotFootprint() >= g.MemoryFootprint() {
		t.Errorf("single snapshot should be smaller than the interval graph here")
	}
}

func TestRoundTripIO(t *testing.T) {
	g := TransitExample()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch")
	}
	for i := range g.Vertices() {
		v1, v2 := g.Vertex(g.Vertices()[i].ID), g2.Vertex(g.Vertices()[i].ID)
		if v2 == nil || v1.Lifespan != v2.Lifespan {
			t.Fatalf("vertex %d mismatch", v1.ID)
		}
	}
	for i := range g.Edges() {
		e1 := g.Edge(i)
		var e2 *Edge
		for j := range g2.Edges() {
			if g2.Edge(j).ID == e1.ID {
				e2 = g2.Edge(j)
			}
		}
		if e2 == nil || e1.Lifespan != e2.Lifespan || e1.Src != e2.Src || e1.Dst != e2.Dst {
			t.Fatalf("edge %d mismatch", e1.ID)
		}
		if len(e1.Props.Entries(PropTravelCost)) != len(e2.Props.Entries(PropTravelCost)) {
			t.Fatalf("edge %d props mismatch", e1.ID)
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"V 1",                    // short record
		"V 1 0 x",                // bad time
		"Q 1 2 3",                // unknown type
		"E 5 1 2 0 9",            // dangling
		"V 1 0 9\nV 1 0 9",       // dup vertex
		"V 1 0 9\nVP 1 l 0 20 3", // prop outlives
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("input %q should fail to parse", c)
		}
	}
	// "inf" end accepted.
	g, err := Read(strings.NewReader("V 1 0 inf\nV 2 0 inf\nE 1 1 2 3 inf"))
	if err != nil {
		t.Fatalf("inf parse: %v", err)
	}
	if !g.Edge(0).Lifespan.IsUnbounded() {
		t.Errorf("edge should be unbounded")
	}
}

func TestTransitExampleShape(t *testing.T) {
	g := TransitExample()
	if g.NumVertices() != 6 || g.NumEdges() != 6 {
		t.Fatalf("fixture shape wrong: %v", g)
	}
	// Edge A->B has two cost values over its lifespan.
	e := g.Edge(0)
	if len(e.Props.Entries(PropTravelCost)) != 2 {
		t.Errorf("A->B should have 2 cost entries")
	}
	if v, _ := e.Props.ValueAt(PropTravelCost, 4); v != 4 {
		t.Errorf("cost@4 = %d, want 4", v)
	}
	if v, _ := e.Props.ValueAt(PropTravelCost, 5); v != 3 {
		t.Errorf("cost@5 = %d, want 3", v)
	}
	if TransitVertexName(0) != "A" || TransitVertexName(4) != "E" || TransitVertexName(9) != "?" {
		t.Errorf("vertex names wrong")
	}
}
