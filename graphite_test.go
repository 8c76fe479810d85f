// Tests exercising the public facade: the API a downstream user sees.
package graphite_test

import (
	"testing"

	"graphite"
)

func TestFacadeQuickstart(t *testing.T) {
	g := graphite.TransitExample()
	r, err := graphite.RunSSSP(g, 0, 0, 2)
	if err != nil {
		t.Fatalf("RunSSSP: %v", err)
	}
	costs := graphite.SSSPCosts(r, 4)
	if len(costs) != 2 || costs[1].Value != 5 {
		t.Fatalf("E costs = %v", costs)
	}
}

func TestFacadeBuilderAndCustomProgram(t *testing.T) {
	b := graphite.NewGraphBuilder(2, 1)
	b.AddVertex(1, graphite.NewInterval(0, 10))
	b.AddVertex(2, graphite.NewInterval(0, 10))
	b.AddEdge(1, 1, 2, graphite.NewInterval(3, 7))
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	r, err := graphite.Run(g, &tokenFlood{}, graphite.Options{NumWorkers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := r.StateByID(2)
	if v, _ := st.Get(4); v.(int64) != 1 {
		t.Errorf("token not flooded within edge lifespan: %v", st.Parts())
	}
	if v, _ := st.Get(8); v.(int64) != 0 {
		t.Errorf("token leaked outside edge lifespan: %v", st.Parts())
	}
}

// tokenFlood is a minimal user-written ICM program using only facade types.
type tokenFlood struct{}

func (tokenFlood) Init(v *graphite.VertexCtx) {
	v.SetState(v.Lifespan(), int64(0))
}

func (tokenFlood) Compute(v *graphite.VertexCtx, t graphite.Interval, state any, msgs []graphite.Word) {
	if v.Superstep() == 1 && v.ID() == 1 {
		v.SetState(t, int64(1))
		return
	}
	if state.(int64) == 0 && len(msgs) > 0 {
		v.SetState(t, int64(1))
	}
}

func (tokenFlood) Scatter(v *graphite.VertexCtx, e *graphite.Edge, t graphite.Interval, state any) []graphite.OutMsg {
	return []graphite.OutMsg{{Value: graphite.IntWord(state.(int64))}}
}

func TestFacadeWarp(t *testing.T) {
	out := graphite.Warp(
		[]graphite.WarpInput{{Interval: graphite.Universe, Value: "s"}},
		[]graphite.WarpInput{
			{Interval: graphite.From(9), Value: 5},
			{Interval: graphite.From(6), Value: 7},
		},
	)
	if len(out) != 2 || out[0].Interval != graphite.NewInterval(6, 9) {
		t.Fatalf("warp = %v", out)
	}
}

func TestFacadeIO(t *testing.T) {
	g := graphite.TransitExample()
	path := t.TempDir() + "/transit.tg"
	if err := graphite.WriteGraphFile(path, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	g2, err := graphite.ReadGraphFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch")
	}
}
