package core

import (
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"
	"weak"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// A live epoch's plan is its predecessor's plan with the pieces of the edges
// the patch gave rebuilt. Its oracle is the plan built from scratch over the
// same epoch: buildScatterPlan with no predecessor.

// planDiff returns nil when two plans are deeply equal, and otherwise names
// the fields in which they differ.
func planDiff(got, want *scatterPlan) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	var differ []string
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"at", got.at, want.at}, {"pieces", got.pieces, want.pieces}, {"match", got.match, want.match},
		{"slots", got.slots, want.slots}, {"values", got.values, want.values}, {"present", got.present, want.present},
		{"targetOff", got.targetOff, want.targetOff}, {"targets", got.targets, want.targets},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			differ = append(differ, f.name)
		}
	}
	return fmt.Errorf("plan differs from the rebuild in %v", differ)
}

// checkEpochPlan holds the plan planFor gives g under every option shape to
// the rebuild.
func checkEpochPlan(g *tgraph.Graph) error {
	for name, opts := range planOptionShapes() {
		if err := planDiff(planFor(g, &opts), buildScatterPlan(g, opts.planKey(), nil, nil)); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
	}
	return nil
}

// epochPair streams a generated graph's event log through an accumulator:
// prev is the epoch of every tick before p.Snapshots/2, with its plans under
// keys built; next is the tick at p.Snapshots/2 patched onto it.
func epochPair(tb testing.TB, p gen.Profile, seed int64, keys ...Options) (prev, next *tgraph.Graph) {
	tb.Helper()
	g, err := gen.Generate(p, seed)
	if err != nil {
		tb.Fatal(err)
	}
	at := ival.Time(p.Snapshots / 2)
	a := stream.NewAccumulator()
	for _, ev := range stream.EventsOf(g) {
		if ev.T > at {
			break
		}
		if ev.T == at && prev == nil {
			if prev, err = a.Patch(); err != nil {
				tb.Fatal(err)
			}
			for _, opts := range keys {
				planFor(prev, &opts)
			}
		}
		if err := a.Apply(ev); err != nil {
			tb.Fatal(err)
		}
	}
	if next, err = a.Patch(); err != nil {
		tb.Fatal(err)
	}
	if len(keys) > 0 && next.Lineage() == nil {
		tb.Fatal("the patched epoch has no lineage")
	}
	return prev, next
}

// TestEpochPlanMatchesRebuild replays generated graphs' event logs in seeded
// random batches of 1 to 4 ticks: after every batch, the plan of the epoch
// under every option shape must equal its rebuild. Every epoch patched onto a
// planned predecessor must inherit (have a lineage) and, once planned under
// every key its predecessor had, release it. Batch 3 is never planned, so
// batch 4 starts from scratch.
func TestEpochPlanMatchesRebuild(t *testing.T) {
	for _, p := range []gen.Profile{gen.MAGLike(0.05), gen.TwitterLike(0.05), gen.USRNLike(0.05)} {
		g0, err := gen.Generate(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		evs := stream.EventsOf(g0)
		r := rand.New(rand.NewSource(5))
		a := stream.NewAccumulator()
		batches, inherited, removals := 0, 0, 0
		for i := 0; i < len(evs); batches++ {
			last := evs[i].T + ival.Time(r.Intn(4))
			for ; i < len(evs) && evs[i].T <= last; i++ {
				if evs[i].Op == stream.RemoveEdge {
					removals++
				}
				if err := a.Apply(evs[i]); err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
			}
			g, err := a.Patch()
			if err != nil {
				t.Fatalf("%s batch %d: %v", p.Name, batches, err)
			}
			fresh := batches == 0 || batches == 4
			if lin := g.Lineage(); (lin == nil) != fresh {
				t.Fatalf("%s batch %d: has a lineage: %v, want %v", p.Name, batches, lin != nil, !fresh)
			}
			if batches == 3 {
				continue
			}
			if g.Lineage() != nil {
				inherited++
			}
			if err := checkEpochPlan(g); err != nil {
				t.Fatalf("%s batch %d (%d edges): %v", p.Name, batches, g.NumEdges(), err)
			}
			if g.Lineage() != nil {
				t.Fatalf("%s batch %d: lineage still held once every key was planned", p.Name, batches)
			}
		}
		if batches < 9 || inherited < batches-4 || removals == 0 {
			t.Errorf("%s: %d batches, %d planned from their predecessor, %d edge removals; the log exercised too little",
				p.Name, batches, inherited, removals)
		}
	}
}

// FuzzEpochPlan decodes bytes into event batches over a few ids, as
// FuzzEpochPatch does, with property labels drawn from the travel labels so
// that pieces cut; after every batch Preflight accepts, the epoch's plan under
// every option shape must equal its rebuild. Four bytes make an event: op (6
// ends the batch, and its second byte, when odd, leaves that epoch
// unplanned), time step, and two operands.
func FuzzEpochPlan(f *testing.F) {
	// Two edges, each with one label; then both labels change on the first
	// and a third edge arrives; then the first is removed and the second's
	// cost set.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 2, 0, 1, 13, 2, 0, 2, 20, 5, 0, 1, 1, 5, 0, 2, 2, 6, 0, 0, 0,
		5, 2, 1, 4, 5, 1, 1, 3, 2, 0, 3, 9, 6, 0, 0, 0, 3, 2, 1, 0, 5, 0, 2, 5, 6, 0, 0, 0})
	// A self-loop whose first epoch is left unplanned, so the next starts
	// from scratch.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 2, 0, 0, 7, 5, 0, 0, 2, 6, 1, 0, 0, 5, 1, 0, 3, 6, 0, 0, 0, 3, 0, 0, 0, 5, 1, 0, 4})
	// Three edges with properties; then the second is removed at the time it
	// started, so its lifespan empties and it leaves the table, shifting the
	// third; then a property change and a new edge.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 2, 0, 1, 13, 2, 0, 2, 8, 2, 0, 3, 7, 5, 0, 1, 13, 5, 0, 3, 12, 6, 0, 0, 0,
		3, 0, 2, 0, 6, 0, 0, 0, 5, 1, 1, 4, 2, 0, 4, 13, 6, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := stream.NewAccumulator()
		var batch []stream.Event
		now := ival.Time(0)
		flush := func(plan bool) {
			if len(batch) == 0 || a.Preflight(batch) != nil {
				batch = batch[:0]
				return
			}
			for _, ev := range batch {
				if err := a.Apply(ev); err != nil {
					t.Fatalf("preflighted event %+v rejected: %v", ev, err)
				}
			}
			batch = batch[:0]
			g, err := a.Patch()
			if err != nil {
				t.Fatalf("preflighted batch did not materialize: %v", err)
			}
			if !plan {
				return
			}
			if err := checkEpochPlan(g); err != nil {
				t.Fatalf("%d edges: %v", g.NumEdges(), err)
			}
		}
		labels := []string{tgraph.PropTravelTime, tgraph.PropTravelCost}
		for ; len(data) >= 4; data = data[4:] {
			op, x, y := data[0]%7, data[2], data[3]
			if op == 6 {
				flush(data[1]%2 == 0)
				continue
			}
			now += ival.Time(data[1] % 3)
			batch = append(batch, stream.Event{Op: stream.Op(op), T: now, V: tgraph.VertexID(x % 6), E: tgraph.EdgeID(x % 8),
				Src: tgraph.VertexID(y % 6), Dst: tgraph.VertexID(y / 6 % 6), Label: labels[y%2], Value: int64(y)})
		}
		flush(true)
	})
}

// TestEpochPlanReleasesPredecessor: a patched epoch keeps its predecessor's
// plan alive only until it has built its own, and never the predecessor
// itself. Before, the lineage must hold the plan — or there would be nothing
// to copy from — but not the dropped predecessor epoch; after, two
// collections must free the plan too.
func TestEpochPlanReleasesPredecessor(t *testing.T) {
	opts := planOptionShapes()["forward/travel-labels"]
	// The predecessor lives only in this frame, so nothing on the test's own
	// stack keeps it.
	pair := func() (weak.Pointer[tgraph.Graph], weak.Pointer[scatterPlan], *tgraph.Graph) {
		prev, next := epochPair(t, gen.TwitterLike(0.05), 3, opts)
		return weak.Make(prev), weak.Make(planFor(prev, &opts)), next
	}
	prev, old, next := pair()
	goruntime.GC()
	goruntime.GC()
	if prev.Value() != nil {
		t.Error("the dropped predecessor epoch is still reachable from its successor")
	}
	if old.Value() == nil {
		t.Fatal("the predecessor's plan was collected before its successor built one from it")
	}
	planFor(next, &opts)
	goruntime.GC()
	goruntime.GC()
	if old.Value() != nil {
		t.Error("the successor's plan is built and the predecessor dropped, but its plan is still reachable")
	}
	goruntime.KeepAlive(next)
}

// BenchmarkEpochPlan builds the scatter plan of one live_refresh-sized epoch
// (BenchmarkEpochPatch's fixture: MAGLike(0.5) over 240 ticks, one tick
// patched onto the epoch of the first 120) under the travel labels: full
// builds it from scratch, delta from its predecessor's plan. The delta build
// is held to the full one once, untimed.
func BenchmarkEpochPlan(b *testing.B) {
	p := gen.MAGLike(0.5)
	p.Snapshots = 240
	opts := planOptionShapes()["forward/travel-labels"]
	prev, next := epochPair(b, p, 42, opts)
	key, base, from := opts.planKey(), planFor(prev, &opts), next.Lineage().Sources()
	if err := planDiff(buildScatterPlan(next, key, base, from), buildScatterPlan(next, key, nil, nil)); err != nil {
		b.Fatal(err)
	}
	given := 0
	for _, j := range from {
		if j < 0 {
			given++
		}
	}
	for name, pv := range map[string]*scatterPlan{"full": nil, "delta": base} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPlan = buildScatterPlan(next, key, pv, from)
			}
			b.ReportMetric(float64(given), "given-edges/op")
			b.ReportMetric(float64(next.NumEdges()), "edges/op")
		})
	}
}

var benchPlan *scatterPlan
