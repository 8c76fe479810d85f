package core

import (
	"strings"
	"testing"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// The work a window view must not do. What it must compute — states and
// counts equal to the run over tgraph.Slice — is held by the differential in
// internal/algorithms, which can see the catalog.

func windowGateRun(tb testing.TB, g *tgraph.Graph, window ival.Interval, workers int) *Result {
	tb.Helper()
	r, err := Run(g, &ssspGateProg{source: g.Edge(0).Src}, Options{
		NumWorkers: workers,
		PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost},
		Window:     window,
		Combine:    true, // as algorithms.SSSP runs
	})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestWindowNormalised: the zero window and any window containing the graph's
// lifespan are no window at all, exactly where tgraph.Slice returns the graph
// itself; a window no vertex exists in is refused like an empty graph.
func TestWindowNormalised(t *testing.T) {
	g := tgraph.TransitExample()
	hull := g.Lifespan()
	slack := Options{ScatterSlackLabel: tgraph.PropTravelTime}
	ownMatch := func(rt *runtime) bool { return &rt.match[0] != &rt.plan.match[0] }
	for _, w := range []ival.Interval{{}, ival.Universe, hull, ival.New(hull.Start, ival.SatAdd(hull.End, 9))} {
		slack.Window = w
		if rt := newRuntime(g, &ssspGateProg{}, slack); rt.window != ival.Universe || ownMatch(rt) {
			t.Errorf("window %v: runtime clips to %v (own triggers %v), want no clip", w, rt.window, ownMatch(rt))
		}
	}
	half := ival.New(hull.Start, g.Horizon()/2)
	slack.Window = half
	if rt := newRuntime(g, &ssspGateProg{}, slack); rt.window != half || !ownMatch(rt) {
		t.Errorf("window %v: runtime clips to %v (own triggers %v)", half, rt.window, ownMatch(rt))
	}
	if rt := newRuntime(g, &ssspGateProg{}, Options{Window: half}); ownMatch(rt) {
		t.Error("without a slack label the plan's triggers are its pieces and need no clip")
	}
	bounded := tgraph.NewBuilder(2, 1).AddVertex(1, ival.New(2, 10)).AddVertex(2, ival.New(4, 12)).
		AddEdge(1, 1, 2, ival.New(4, 9)).MustBuild()
	for _, w := range []ival.Interval{ival.New(12, 20), ival.New(0, 2), ival.New(7, 7), ival.New(9, 2)} {
		_, err := Run(bounded, &ssspGateProg{}, Options{NumWorkers: 1, Window: w})
		if err == nil || !strings.Contains(err.Error(), "contains no vertices") {
			t.Errorf("Run over window %v: %v, want a refusal", w, err)
		}
		if _, err := NewShard(bounded, &ssspGateProg{}, Options{NumWorkers: 2, Window: w}, 0); err == nil {
			t.Errorf("NewShard over window %v was accepted", w)
		}
	}
}

// TestWindowedRunBuildsNoPlan: with the graph's plan memoised, a windowed run
// builds none — it is handed the very plan the whole-lifetime run used.
func TestWindowedRunBuildsNoPlan(t *testing.T) {
	g, err := gen.Generate(gen.TwitterLike(0.05), 3)
	if err != nil {
		t.Fatal(err)
	}
	windowGateRun(t, g, ival.Interval{}, 2)
	before := PlanBuilds(g)
	plan := planEntries(g)[0].plan
	h := g.Horizon()
	for _, w := range []ival.Interval{ival.New(0, h/2), ival.Point(h / 2), ival.From(h - h/4), ival.New(h/4, h/2)} {
		r := windowGateRun(t, g, w, 2)
		if r.Metrics.Messages == 0 && w.Length() > 1 {
			t.Errorf("window %v: the gate run sent no messages", w)
		}
		opts := Options{PropLabels: []string{tgraph.PropTravelTime, tgraph.PropTravelCost}, Window: w}
		if rt := newRuntime(g, &ssspGateProg{}, opts); rt.plan != plan {
			t.Errorf("window %v: the runtime holds a plan of its own", w)
		}
	}
	if after := PlanBuilds(g); before != 1 || after != before {
		t.Errorf("%d plans built before the windowed runs, %d after; want 1 and 1", before, after)
	}
}

// TestWindowedRunAllocations: a windowed run allocates no more objects than
// the whole-lifetime run over the same graph, give or take a constant that
// does not grow with the graph — nothing per vertex, edge or piece is derived
// for the window.
func TestWindowedRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	const slack = 8
	for _, scale := range []gen.Scale{0.02, 0.2} {
		g, err := gen.Generate(gen.TwitterLike(scale), 3)
		if err != nil {
			t.Fatal(err)
		}
		half := ival.New(0, g.Horizon()/2)
		windowGateRun(t, g, ival.Interval{}, 1) // memoise the plan
		whole := testing.AllocsPerRun(5, func() { windowGateRun(t, g, ival.Interval{}, 1) })
		view := testing.AllocsPerRun(5, func() { windowGateRun(t, g, half, 1) })
		if view > whole+slack {
			t.Errorf("scale %v: the windowed run allocates %.0f objects, the whole-lifetime run %.0f; want at most %d more",
				scale, view, whole, slack)
		}
	}
}

// BenchmarkWindowedRun is the measured traffic's windowed query — SSSP over
// TwitterLike(1), the first half of its lifetime, 2 workers — three ways:
// "whole" is the same query without a window, "view" is Options.Window over
// the graph's memoised plan, "slice" is what a window cost before the view: a
// tgraph.Slice per query, and the plan of that slice.
func BenchmarkWindowedRun(b *testing.B) {
	g, err := gen.Generate(gen.TwitterLike(1), 1)
	if err != nil {
		b.Fatal(err)
	}
	half := ival.New(0, g.Horizon()/2)
	windowGateRun(b, g, ival.Interval{}, 2)
	var msgs int64
	b.Run("whole", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			msgs = windowGateRun(b, g, ival.Interval{}, 2).Metrics.Messages
		}
	})
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			msgs = windowGateRun(b, g, half, 2).Metrics.Messages
		}
	})
	view := msgs
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := tgraph.Slice(g, half)
			if err != nil {
				b.Fatal(err)
			}
			msgs = windowGateRun(b, s, ival.Interval{}, 2).Metrics.Messages
		}
	})
	if view == 0 || view != msgs {
		b.Fatalf("the view sent %d messages, the run over the slice %d", view, msgs)
	}
}
