package core

import (
	"errors"
	"testing"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// chain builds a 3-vertex path graph a->b->c alive over [0,10).
func chain(t *testing.T) *tgraph.Graph {
	t.Helper()
	b := tgraph.NewBuilder(3, 2)
	b.AddVertex(0, ival.New(0, 10))
	b.AddVertex(1, ival.New(0, 10))
	b.AddVertex(2, ival.New(0, 10))
	b.AddEdge(0, 0, 1, ival.New(0, 10))
	b.AddEdge(1, 1, 2, ival.New(2, 8))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// floodProgram propagates a token over the overlap intervals.
type floodProgram struct {
	badWrite  bool // write outside the compute interval (failure injection)
	emitEarly bool // call Emit outside scatter (failure injection)
}

func (p *floodProgram) Init(v *VertexCtx) {
	v.SetState(v.Lifespan(), int64(0))
}

func (p *floodProgram) Compute(v *VertexCtx, t ival.Interval, state any, msgs []any) {
	if p.emitEarly {
		v.Emit(t, int64(1))
		return
	}
	if v.Superstep() == 1 {
		if v.ID() == 0 {
			v.SetState(t, int64(1))
		}
		return
	}
	if p.badWrite {
		// Deliberately write outside the active interval.
		v.SetState(v.Lifespan(), int64(1))
		return
	}
	if state.(int64) == 0 && len(msgs) > 0 {
		v.SetState(t, int64(1))
	}
}

func (p *floodProgram) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	return []OutMsg{{Value: state}}
}

func TestRuntimeFloodInheritsIntervals(t *testing.T) {
	g := chain(t)
	r, err := Run(g, &floodProgram{}, Options{NumWorkers: 2, CheckInvariants: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Vertex 1 receives token over edge 0's lifespan [0,10).
	if v, _ := r.State(1).Get(5); v.(int64) != 1 {
		t.Errorf("vertex 1 not flooded: %v", r.State(1).Parts())
	}
	// Vertex 2 only over edge 1's lifespan [2,8).
	st := r.State(2)
	if v, _ := st.Get(5); v.(int64) != 1 {
		t.Errorf("vertex 2 not flooded at 5: %v", st.Parts())
	}
	if v, _ := st.Get(1); v.(int64) != 0 {
		t.Errorf("vertex 2 flooded outside edge lifespan at 1: %v", st.Parts())
	}
	if v, _ := st.Get(9); v.(int64) != 0 {
		t.Errorf("vertex 2 flooded outside edge lifespan at 9: %v", st.Parts())
	}
}

func TestRuntimeRejectsOutOfIntervalWrites(t *testing.T) {
	g := chain(t)
	_, err := Run(g, &floodProgram{badWrite: true}, Options{NumWorkers: 1})
	if !errors.Is(err, ErrStateOutOfRange) {
		t.Fatalf("want ErrStateOutOfRange, got %v", err)
	}
}

func TestRuntimeRejectsEmitOutsideScatter(t *testing.T) {
	g := chain(t)
	_, err := Run(g, &floodProgram{emitEarly: true}, Options{NumWorkers: 1})
	if err == nil {
		t.Fatalf("Emit outside Scatter must fail the run")
	}
}

func TestRunRejectsEmptyGraph(t *testing.T) {
	b := tgraph.NewBuilder(0, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, &floodProgram{}, Options{}); err == nil {
		t.Fatalf("empty graph must be rejected")
	}
}

// countingProgram records compute tuples per superstep under ActivateAll.
type countingProgram struct {
	tuples map[int]int
}

func (p *countingProgram) Init(v *VertexCtx) { v.SetState(v.Lifespan(), int64(0)) }

func (p *countingProgram) Compute(v *VertexCtx, t ival.Interval, state any, msgs []any) {
	if p.tuples != nil && v.ID() == 2 {
		p.tuples[v.Superstep()]++
	}
	if v.Superstep() == 1 && v.ID() == 0 {
		v.SetState(t, int64(1))
	}
}

func (p *countingProgram) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	// Send only over a sub-interval, leaving gaps.
	x := t.Intersect(ival.New(3, 5))
	if x.IsEmpty() {
		return nil
	}
	return []OutMsg{{When: x, Value: int64(1)}}
}

func TestActivateAllCoversGaps(t *testing.T) {
	g := chain(t)
	p := &countingProgram{tuples: map[int]int{}}
	_, err := Run(g, p, Options{NumWorkers: 1, ActivateAll: true, MaxSupersteps: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Superstep 1: 1 tuple (whole lifespan). Later supersteps: vertex 2 has
	// no messages (vertex 1 never updates) so forced-active coverage gives
	// one tuple per partition per superstep.
	if p.tuples[1] != 1 {
		t.Errorf("superstep 1 tuples = %d, want 1", p.tuples[1])
	}
	if p.tuples[2] == 0 || p.tuples[3] == 0 {
		t.Errorf("forced-active vertex must compute every superstep: %v", p.tuples)
	}
}
