package stream

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"graphite/internal/algorithms"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

func apply(t *testing.T, a *Accumulator, evs ...Event) {
	t.Helper()
	for _, ev := range evs {
		if err := a.Apply(ev); err != nil {
			t.Fatalf("apply %+v: %v", ev, err)
		}
	}
}

func TestAccumulatorLifespans(t *testing.T) {
	a := NewAccumulator()
	apply(t, a,
		Event{Op: AddVertex, T: 0, V: 1},
		Event{Op: AddVertex, T: 0, V: 2},
		Event{Op: AddEdge, T: 2, E: 7, Src: 1, Dst: 2},
		Event{Op: RemoveEdge, T: 5, E: 7},
		Event{Op: RemoveVertex, T: 8, V: 2},
	)
	g, err := a.Graph(10)
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if g.Vertex(1).Lifespan != ival.New(0, 10) {
		t.Errorf("open vertex should close at horizon: %v", g.Vertex(1).Lifespan)
	}
	if g.Vertex(2).Lifespan != ival.New(0, 8) {
		t.Errorf("removed vertex lifespan: %v", g.Vertex(2).Lifespan)
	}
	if g.Edge(0).Lifespan != ival.New(2, 5) {
		t.Errorf("edge lifespan: %v", g.Edge(0).Lifespan)
	}
	// Unbounded materialization.
	g, err = a.Graph(0)
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if !g.Vertex(1).Lifespan.IsUnbounded() {
		t.Errorf("open vertex should be unbounded: %v", g.Vertex(1).Lifespan)
	}
}

func TestAccumulatorPropertyRuns(t *testing.T) {
	a := NewAccumulator()
	apply(t, a,
		Event{Op: AddVertex, T: 0, V: 1},
		Event{Op: AddVertex, T: 0, V: 2},
		Event{Op: AddEdge, T: 0, E: 1, Src: 1, Dst: 2},
		Event{Op: SetEdgeProp, T: 0, E: 1, Label: "w", Value: 5},
		Event{Op: SetEdgeProp, T: 3, E: 1, Label: "w", Value: 9},
		Event{Op: RemoveEdge, T: 7, E: 1},
	)
	g, err := a.Graph(10)
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	e := g.Edge(0)
	if v, _ := e.Props.ValueAt("w", 2); v != 5 {
		t.Errorf("w@2 = %d, want 5", v)
	}
	if v, _ := e.Props.ValueAt("w", 6); v != 9 {
		t.Errorf("w@6 = %d, want 9", v)
	}
	if _, ok := e.Props.ValueAt("w", 7); ok {
		t.Errorf("property must end with the edge")
	}
}

func TestAccumulatorRejectsInvalidStreams(t *testing.T) {
	a := NewAccumulator()
	apply(t, a, Event{Op: AddVertex, T: 5, V: 1})
	if err := a.Apply(Event{Op: AddVertex, T: 3, V: 9}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("want ErrOutOfOrder, got %v", err)
	}
	if err := a.Apply(Event{Op: AddVertex, T: 6, V: 1}); !errors.Is(err, ErrStillOpen) {
		t.Errorf("want ErrStillOpen, got %v", err)
	}
	apply(t, a, Event{Op: RemoveVertex, T: 7, V: 1})
	if err := a.Apply(Event{Op: AddVertex, T: 8, V: 1}); !errors.Is(err, ErrReopened) {
		t.Errorf("want ErrReopened, got %v", err)
	}
	if err := a.Apply(Event{Op: AddEdge, T: 9, E: 1, Src: 1, Dst: 2}); !errors.Is(err, ErrUnknownOwner) {
		t.Errorf("want ErrUnknownOwner, got %v", err)
	}
	if err := a.Apply(Event{Op: RemoveEdge, T: 9, E: 99}); !errors.Is(err, ErrUnknownOwner) {
		t.Errorf("want ErrUnknownOwner for edge, got %v", err)
	}
}

func TestReadLogAndRunICM(t *testing.T) {
	log := `
# a tiny contact log
av 0 1
av 0 2
av 0 3
ae 1 10 1 2
ep 1 10 travel-time 1
ep 1 10 travel-cost 2
re 3 10
ae 4 11 2 3
ep 4 11 travel-time 1
ep 4 11 travel-cost 3
re 6 11
`
	a := NewAccumulator()
	if err := ReadLog(strings.NewReader(log), a); err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if a.Events() != 11 {
		t.Errorf("events = %d, want 11", a.Events())
	}
	g, err := a.Graph(8)
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	// The materialized graph runs straight through the ICM stack.
	r, err := algorithms.RunSSSP(g, tgraph.VertexID(1), 0, 2)
	if err != nil {
		t.Fatalf("RunSSSP: %v", err)
	}
	// 1→2 departs in [1,3): cost 2 arriving from t=2. 2→3 departs in
	// [4,6): total 5 arriving from t=5.
	costs := algorithms.SSSPCosts(r, 3)
	if len(costs) != 1 || costs[0].Value != 5 || costs[0].Interval.Start != 5 {
		t.Fatalf("costs to 3 = %v", costs)
	}
}

func TestReadLogRejectsMalformed(t *testing.T) {
	for _, log := range []string{
		"zz 1 2",
		"av 1",
		"ae 1 5 1",
		"av 5 1\nav 3 2",
		"av x 1",       // non-numeric time must not silently parse as 0
		"av 1 1x",      // non-numeric id
		"av -3 1",      // negative event time
		"vp 1 1 w 1.5", // non-integer property value
	} {
		if err := ReadLog(strings.NewReader(log), NewAccumulator()); err == nil {
			t.Errorf("log %q should fail", log)
		}
	}
}

func TestReadLogErrorsCarryLineNumber(t *testing.T) {
	log := "av 0 1\nav 1 1\n"
	err := ReadLog(strings.NewReader(log), NewAccumulator())
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want error naming line 2, got %v", err)
	}
	if !errors.Is(err, ErrStillOpen) {
		t.Fatalf("want wrapped ErrStillOpen, got %v", err)
	}
}

// TestNegativeEventTimeRejected: an event time outside [0, ∞) is rejected
// with one sentinel, by Apply and by ReadLog alike: a negative one would
// build an invalid lifespan, and one at ∞ would close nothing an epoch shows.
func TestNegativeEventTimeRejected(t *testing.T) {
	for _, tt := range []ival.Time{-1, ival.Infinity} {
		if err := NewAccumulator().Apply(Event{Op: AddVertex, T: tt, V: 1}); !errors.Is(err, ErrTimeRange) {
			t.Errorf("Apply at %d: want ErrTimeRange, got %v", tt, err)
		}
		a := NewAccumulator()
		apply(t, a, Event{Op: AddVertex, T: 0, V: 1})
		if err := a.Apply(Event{Op: RemoveVertex, T: tt, V: 1}); !errors.Is(err, ErrTimeRange) {
			t.Errorf("Apply remove at %d: want ErrTimeRange, got %v", tt, err)
		}
		err := ReadLog(strings.NewReader(fmt.Sprintf("av 0 1\nrv %d 1", tt)), NewAccumulator())
		if !errors.Is(err, ErrTimeRange) || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ReadLog at %d: want ErrTimeRange on line 2, got %v", tt, err)
		}
	}
}

func TestEdgeReAddAfterRemoveRejected(t *testing.T) {
	a := NewAccumulator()
	apply(t, a,
		Event{Op: AddVertex, T: 0, V: 1},
		Event{Op: AddVertex, T: 0, V: 2},
		Event{Op: AddEdge, T: 1, E: 7, Src: 1, Dst: 2},
		Event{Op: RemoveEdge, T: 3, E: 7},
	)
	if err := a.Apply(Event{Op: AddEdge, T: 4, E: 7, Src: 1, Dst: 2}); !errors.Is(err, ErrReopened) {
		t.Errorf("want ErrReopened for edge re-add, got %v", err)
	}
}

// TestZeroLengthReAddRejected: an entity added and removed at one
// time-point has an empty lifespan, so no epoch holds it, yet its id stays
// taken, before its removal reaches an epoch and after.
func TestZeroLengthReAddRejected(t *testing.T) {
	for _, patch := range []bool{false, true} {
		a := NewAccumulator()
		apply(t, a,
			Event{Op: AddVertex, T: 0, V: 1},
			Event{Op: AddVertex, T: 1, V: 5},
			Event{Op: RemoveVertex, T: 1, V: 5},
			Event{Op: AddEdge, T: 1, E: 7, Src: 1, Dst: 1},
			Event{Op: RemoveEdge, T: 1, E: 7},
		)
		if patch {
			g, err := a.Patch()
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() != 1 || g.NumEdges() != 0 {
				t.Fatalf("epoch holds %v, want vertex 1 alone", g)
			}
		}
		if err := a.Apply(Event{Op: AddVertex, T: 2, V: 5}); !errors.Is(err, ErrReopened) {
			t.Errorf("patched %v: vertex re-add: want ErrReopened, got %v", patch, err)
		}
		if err := a.Apply(Event{Op: AddEdge, T: 2, E: 7, Src: 1, Dst: 1}); !errors.Is(err, ErrReopened) {
			t.Errorf("patched %v: edge re-add: want ErrReopened, got %v", patch, err)
		}
	}
}

// TestGraphLeavesTheAccumulator: Graph folds the overlay without advancing
// anything, so asking again folds the same rows (graphite-ingest, the
// examples and the benchmark's materialize probe call it repeatedly), and a
// Patch after it still publishes every row since the last one.
func TestGraphLeavesTheAccumulator(t *testing.T) {
	a := NewAccumulator()
	apply(t, a,
		Event{Op: AddVertex, T: 0, V: 1},
		Event{Op: AddVertex, T: 0, V: 2},
		Event{Op: AddEdge, T: 1, E: 7, Src: 1, Dst: 2},
		Event{Op: SetEdgeProp, T: 2, E: 7, Label: "w", Value: 3},
	)
	base, rows := a.base, len(a.ov.v)+len(a.ov.e)
	first, err := a.Graph(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Graph(2); err != nil {
		t.Fatal(err)
	}
	if a.base != base || len(a.ov.v)+len(a.ov.e) != rows {
		t.Fatalf("Graph advanced the accumulator: base moved %v, %d rows of %d left", a.base != base, len(a.ov.v)+len(a.ov.e), rows)
	}
	epoch, err := a.Patch()
	if err != nil {
		t.Fatal(err)
	}
	if err := tgraph.Equal(epoch, first); err != nil {
		t.Fatalf("the epoch after Graph differs from Graph's graph: %v", err)
	}
	if a.base != epoch || len(a.ov.v)+len(a.ov.e) != 0 {
		t.Fatal("Patch did not make its epoch the base")
	}
}

func TestDuplicateRemovesRejected(t *testing.T) {
	a := NewAccumulator()
	apply(t, a,
		Event{Op: AddVertex, T: 0, V: 1},
		Event{Op: AddVertex, T: 0, V: 2},
		Event{Op: AddEdge, T: 1, E: 7, Src: 1, Dst: 2},
		Event{Op: RemoveEdge, T: 3, E: 7},
		Event{Op: RemoveVertex, T: 4, V: 2},
	)
	if err := a.Apply(Event{Op: RemoveEdge, T: 5, E: 7}); !errors.Is(err, ErrUnknownOwner) {
		t.Errorf("duplicate edge remove: want ErrUnknownOwner, got %v", err)
	}
	if err := a.Apply(Event{Op: RemoveVertex, T: 5, V: 2}); !errors.Is(err, ErrUnknownOwner) {
		t.Errorf("duplicate vertex remove: want ErrUnknownOwner, got %v", err)
	}
}

func TestPropertyChurnAtSameTimestamp(t *testing.T) {
	// Two writes at the same instant: the later one wins outright, and the
	// zero-length run of the first must not surface as a property entry.
	a := NewAccumulator()
	apply(t, a,
		Event{Op: AddVertex, T: 0, V: 1},
		Event{Op: SetVertexProp, T: 5, V: 1, Label: "w", Value: 10},
		Event{Op: SetVertexProp, T: 5, V: 1, Label: "w", Value: 20},
	)
	g, err := a.Graph(9)
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	entries := g.Vertex(1).Props.Entries("w")
	if len(entries) != 1 {
		t.Fatalf("want one surviving run, got %v", entries)
	}
	if entries[0].Value != 20 || entries[0].Interval != ival.New(5, 9) {
		t.Errorf("surviving run = %+v, want value 20 over [5,9)", entries[0])
	}
}

func TestHorizonClosesOpenEdges(t *testing.T) {
	a := NewAccumulator()
	apply(t, a,
		Event{Op: AddVertex, T: 0, V: 1},
		Event{Op: AddVertex, T: 0, V: 2},
		Event{Op: AddEdge, T: 2, E: 7, Src: 1, Dst: 2},
		Event{Op: SetEdgeProp, T: 3, E: 7, Label: "w", Value: 4},
	)
	g, err := a.Graph(6)
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if g.Edge(0).Lifespan != ival.New(2, 6) {
		t.Errorf("open edge should close at horizon: %v", g.Edge(0).Lifespan)
	}
	if entries := g.Edge(0).Props.Entries("w"); len(entries) != 1 || entries[0].Interval != ival.New(3, 6) {
		t.Errorf("open property run should clip to horizon: %v", entries)
	}
	// The same accumulator still materializes unbounded afterwards.
	g, err = a.Graph(0)
	if err != nil {
		t.Fatalf("Graph(0): %v", err)
	}
	if !g.Edge(0).Lifespan.IsUnbounded() {
		t.Errorf("edge should stay open without a horizon: %v", g.Edge(0).Lifespan)
	}
}

func TestPreflightValidatesWithoutMutating(t *testing.T) {
	a := NewAccumulator()
	apply(t, a, Event{Op: AddVertex, T: 0, V: 1})
	before := a.Events()

	// A batch with intra-batch dependencies (edge between vertices added in
	// the same batch) must validate.
	good := []Event{
		{Op: AddVertex, T: 1, V: 2},
		{Op: AddEdge, T: 2, E: 7, Src: 1, Dst: 2},
		{Op: SetEdgeProp, T: 2, E: 7, Label: "w", Value: 3},
		{Op: RemoveEdge, T: 4, E: 7},
	}
	if err := a.Preflight(good); err != nil {
		t.Fatalf("good batch rejected: %v", err)
	}
	if a.Events() != before || a.Now() != 0 {
		t.Fatalf("Preflight mutated the accumulator")
	}

	bad := [][]Event{
		{{Op: AddVertex, T: 1, V: 1}},                                                           // still open
		{{Op: AddEdge, T: 1, E: 7, Src: 1, Dst: 99}},                                            // unknown endpoint
		{{Op: AddVertex, T: 1, V: 2}, {Op: AddVertex, T: 0, V: 3}},                              // order within batch
		{{Op: RemoveEdge, T: 1, E: 7}},                                                          // unknown edge
		{{Op: AddVertex, T: -1, V: 2}},                                                          // negative time
		{{Op: RemoveVertex, T: 1, V: 1}, {Op: SetVertexProp, T: 2, V: 1, Label: "w", Value: 1}}, // prop after remove in batch
	}
	for i, batch := range bad {
		if err := a.Preflight(batch); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
		if a.Events() != before {
			t.Fatalf("Preflight of bad batch %d mutated the accumulator", i)
		}
	}
	// And the accumulator still accepts the good batch for real afterwards.
	apply(t, a, good...)
}
