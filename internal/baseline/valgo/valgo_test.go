package valgo

import (
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
	"graphite/internal/vcm"
)

// diamondAt builds a static-at-t diamond 0→{1,2}→3 alive over [0,4).
func diamondAt(t *testing.T) *tgraph.Graph {
	t.Helper()
	b := tgraph.NewBuilder(4, 4)
	life := ival.New(0, 4)
	for v := tgraph.VertexID(0); v < 4; v++ {
		b.AddVertex(v, life)
	}
	b.AddEdge(0, 0, 1, life)
	b.AddEdge(1, 0, 2, life)
	b.AddEdge(2, 1, 3, life)
	b.AddEdge(3, 2, 3, life)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBFSSpecOnSnapshot(t *testing.T) {
	g := diamondAt(t)
	spec := BFSSpec(0)
	r, err := vcm.RunSnapshot(g, 1, spec.Program, spec.Options)
	if err != nil {
		t.Fatalf("RunSnapshot: %v", err)
	}
	for v, want := range []int64{0, 1, 1, 2} {
		if got := r.State(v).(int64); got != want {
			t.Errorf("level[%d] = %d, want %d", v, got, want)
		}
	}
}

func TestWCCSpecOnSnapshot(t *testing.T) {
	g := diamondAt(t)
	spec := WCCSpec()
	r, err := vcm.RunSnapshot(g, 0, spec.Program, spec.Options)
	if err != nil {
		t.Fatalf("RunSnapshot: %v", err)
	}
	for v := 0; v < 4; v++ {
		if got := r.State(v).(int64); got != 0 {
			t.Errorf("label[%d] = %d, want 0", v, got)
		}
	}
}

func TestPageRankSpecSumsContributions(t *testing.T) {
	g := diamondAt(t)
	spec := PageRankSpec(5)
	r, err := vcm.RunSnapshot(g, 2, spec.Program, spec.Options)
	if err != nil {
		t.Fatalf("RunSnapshot: %v", err)
	}
	// Vertex 3 collects both branch contributions; it must outrank 1 and 2.
	r3 := r.State(3).(float64)
	r1 := r.State(1).(float64)
	if r3 <= r1 {
		t.Errorf("rank(3)=%f should exceed rank(1)=%f", r3, r1)
	}
}

func TestSCCSpecSingletons(t *testing.T) {
	g := diamondAt(t) // acyclic: all singletons
	spec := SCCSpec()
	r, err := vcm.RunSnapshot(g, 0, spec.Program, spec.Options)
	if err != nil {
		t.Fatalf("RunSnapshot: %v", err)
	}
	for v := int64(0); v < 4; v++ {
		if got := SCCLabel(r.State(int(v))); got != v {
			t.Errorf("scc[%d] = %d, want %d", v, got, v)
		}
	}
	if SCCLabel(nil) != -1 {
		t.Errorf("nil state should decode to -1")
	}
}

func TestFreshRebuildsEachKind(t *testing.T) {
	// Stateful pieces (aggregators, masters) must be new instances; zero-
	// sized programs may legitimately share an address.
	orig := SCCSpec()
	fresh := Fresh(orig)
	for name, agg := range orig.Options.Aggregators {
		if fresh.Options.Aggregators[name] == agg {
			t.Errorf("aggregator %q shared between Fresh specs", name)
		}
	}
	// The SCC master is stateless, so instance sharing is immaterial.
	bfs := BFSSpec(3)
	if Fresh(bfs).Program.(*BFS).Source != 3 {
		t.Errorf("Fresh must preserve the BFS source")
	}
	if Fresh(PageRankSpec(7)).Program.(*PageRank).Iterations != 7 {
		t.Errorf("Fresh must preserve PR iterations")
	}
	// Unknown kinds pass through.
	odd := Spec{}
	if Fresh(odd).Program != nil {
		t.Errorf("unknown spec should pass through")
	}
}

func TestMinCombine(t *testing.T) {
	if got := MinCombine(codec.IntWord(3), codec.IntWord(5)).Int(); got != 3 {
		t.Errorf("MinCombine = %d", got)
	}
	if got := MinCombine(codec.IntWord(9), codec.IntWord(5)).Int(); got != 5 {
		t.Errorf("MinCombine = %d", got)
	}
}
