package algorithms

import (
	"fmt"
	"math/rand"
	"testing"

	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// incrementalTestGraph builds a deterministic random temporal graph over
// [0, 100): staggered vertex births (so window extensions add vertices),
// edge lifespans inside both endpoints' lifespans, segmented travel-time
// properties (so scatter sees property boundaries) and a unit travel cost on
// every edge — the path programs traverse only edges that carry both.
func incrementalTestGraph(t *testing.T, seed int64) *tgraph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const V = 48
	b := tgraph.NewBuilder(V, 4*V)
	births := make([]ival.Time, V)
	for i := 0; i < V; i++ {
		if i != 0 && i%5 == 0 {
			births[i] = ival.Time(r.Intn(85))
		}
		b.AddVertex(tgraph.VertexID(i), ival.New(births[i], 100))
	}
	eid := tgraph.EdgeID(0)
	for i := 0; i < V; i++ {
		deg := 2 + r.Intn(3)
		for d := 0; d < deg; d++ {
			j := r.Intn(V)
			if j == i {
				continue
			}
			lo := max(births[i], births[j])
			start := lo + ival.Time(r.Intn(20))
			end := start + ival.Time(5+r.Intn(40))
			if end > 100 {
				end = 100
			}
			if start >= end {
				continue
			}
			b.AddEdge(eid, tgraph.VertexID(i), tgraph.VertexID(j), ival.New(start, end))
			if mid := (start + end) / 2; r.Intn(3) == 0 && mid > start && mid < end {
				b.SetEdgeProp(eid, tgraph.PropTravelTime, ival.New(start, mid), int64(1+r.Intn(4)))
				b.SetEdgeProp(eid, tgraph.PropTravelTime, ival.New(mid, end), int64(1+r.Intn(4)))
			} else {
				b.SetEdgeProp(eid, tgraph.PropTravelTime, ival.New(start, end), int64(1+r.Intn(4)))
			}
			b.SetEdgeProp(eid, tgraph.PropTravelCost, ival.New(start, end), 1)
			eid++
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	return g
}

// requireSameStates asserts two results hold bit-identical partitioned
// states for every vertex: same partition boundaries, same values.
func requireSameStates(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if want.Graph.NumVertices() != got.Graph.NumVertices() {
		t.Fatalf("%s: vertex counts differ", label)
	}
	for i := 0; i < want.Graph.NumVertices(); i++ {
		wp, gp := want.State(i).Parts(), got.State(i).Parts()
		if len(wp) != len(gp) {
			t.Fatalf("%s: vertex %d: %d parts vs %d\nfull: %v\nincr: %v",
				label, want.Graph.VertexAt(i).ID, len(wp), len(gp), wp, gp)
		}
		for k := range wp {
			if wp[k].Interval != gp[k].Interval || wp[k].Value != gp[k].Value {
				t.Fatalf("%s: vertex %d part %d: full %v=%v, incremental %v=%v",
					label, want.Graph.VertexAt(i).ID, k,
					wp[k].Interval, wp[k].Value, gp[k].Interval, gp[k].Value)
			}
		}
	}
}

// reachedOther reports whether the run of the named seedable program reached
// a vertex other than its source, vertex 0.
func reachedOther(name string, r *core.Result) bool {
	for v := range r.ByID() {
		if v.ID == 0 {
			continue
		}
		switch name {
		case "eat":
			if EarliestArrival(r, v.ID) != Unreachable {
				return true
			}
		case "fast":
			if FastestDuration(r, v.ID) != Unreachable {
				return true
			}
		case "rh":
			if Reachable(r, v.ID) {
				return true
			}
		}
	}
	return false
}

// runSeeded runs the named program from vertex 0 over g at a worker count,
// seeded from seeds (nil: cold).
func runSeeded(t *testing.T, label string, g *tgraph.Graph, name string, workers int, seeds []*core.PartitionedState) *core.Result {
	t.Helper()
	prog, opts, err := New(g, name, Params{Source: 0})
	if err != nil {
		t.Fatalf("%s: New: %v", label, err)
	}
	opts.NumWorkers = workers
	opts.SeedStates = seeds
	r, err := core.Run(g, prog, opts)
	if err != nil {
		t.Fatalf("%s: run: %v", label, err)
	}
	return r
}

// TestIncrementalMatchesFullRecompute is the differential acceptance test:
// for every seedable algorithm, running the extended window from the prior
// window's terminal state must be bit-identical to a cold recompute of the
// extended window — every cold run sending messages and reaching past its
// source, so the states compared are computed ones. The chained case seeds
// each of four successive cuts from the previous seeded run, as a live graph
// re-queried after every tick does; its runs must send the same messages at
// every worker count, since whether a superstep-1 message is absorbed
// depends on the destination's seed alone.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	workerCounts := []int{1, 2, 3, 4}
	for _, seed := range []int64{1, 7, 42} {
		g := incrementalTestGraph(t, seed)
		g2, err := tgraph.Slice(g, ival.New(0, 100))
		if err != nil {
			t.Fatalf("slice [0,100): %v", err)
		}
		for _, name := range []string{"eat", "fast", "rh"} {
			if !SupportsIncremental(name) {
				t.Fatalf("%s lost its incremental support", name)
			}
			for _, cut := range []ival.Time{30, 60, 85} {
				g1, err := tgraph.Slice(g, ival.New(0, cut))
				if err != nil {
					t.Fatalf("slice [0,%d): %v", cut, err)
				}
				for _, workers := range workerCounts {
					label := fmt.Sprintf("seed=%d cut=%d algo=%s workers=%d", seed, cut, name, workers)
					prior := runSeeded(t, label, g1, name, workers, nil)
					full := runSeeded(t, label, g2, name, workers, nil)
					if full.Metrics.Messages == 0 || !reachedOther(name, full) {
						t.Fatalf("%s: the cold run sent %d messages and reached no vertex past its source",
							label, full.Metrics.Messages)
					}
					incr := runSeeded(t, label, g2, name, workers, prior.Seed().StatesFor(g2))
					requireSameStates(t, label, full, incr)
				}
			}

			// The chain: [0,25) cold, then [0,50), [0,75) and [0,100) each
			// seeded from the run before it.
			var sent []int64
			for _, workers := range workerCounts {
				var prev *core.Result
				var msgs int64
				for _, end := range []ival.Time{25, 50, 75, 100} {
					label := fmt.Sprintf("seed=%d chain end=%d algo=%s workers=%d", seed, end, name, workers)
					gw, err := tgraph.Slice(g, ival.New(0, end))
					if err != nil {
						t.Fatalf("slice [0,%d): %v", end, err)
					}
					var seeds []*core.PartitionedState
					if prev != nil {
						seeds = prev.Seed().StatesFor(gw)
					}
					cold := runSeeded(t, label, gw, name, workers, nil)
					prev = runSeeded(t, label, gw, name, workers, seeds)
					requireSameStates(t, label, cold, prev)
					msgs += prev.Metrics.Messages
				}
				sent = append(sent, msgs)
			}
			for i, n := range sent {
				if n != sent[0] {
					t.Errorf("seed=%d chain algo=%s: %d workers sent %d messages, %d workers %d",
						seed, name, workerCounts[i], n, workerCounts[0], sent[0])
				}
			}
		}
	}
}

// TestUnsupportedAlgorithmsStayCold pins the catalog's seedable set.
func TestUnsupportedAlgorithmsStayCold(t *testing.T) {
	for _, name := range Names() {
		want := name == "eat" || name == "fast" || name == "rh"
		if got := SupportsIncremental(name); got != want {
			t.Errorf("SupportsIncremental(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestSeededRunTakesFewerSupersteps pins what seeding is for: on a chain that
// grows one vertex per time unit, a run over the whole chain seeded from the
// terminal states of its first three quarters ends in strictly fewer
// supersteps than the cold run — it needs about the extension's diameter, the
// cold run the whole chain's. FAST is the exception and only has to take no
// more: its journey-start value changes every time unit, one partition each,
// so the seeded superstep-1 re-scatter walks the whole chain again. Seeding
// is a correctness-preserving hint, not a guaranteed win.
func TestSeededRunTakesFewerSupersteps(t *testing.T) {
	const V = 64
	b := tgraph.NewBuilder(V, V)
	for v := 0; v < V; v++ {
		b.AddVertex(tgraph.VertexID(v), ival.From(ival.Time(v)))
		if v > 0 {
			e := tgraph.EdgeID(v)
			b.AddEdge(e, tgraph.VertexID(v-1), tgraph.VertexID(v), ival.From(ival.Time(v)))
			b.SetEdgeProp(e, tgraph.PropTravelTime, ival.From(ival.Time(v)), 1)
			b.SetEdgeProp(e, tgraph.PropTravelCost, ival.From(ival.Time(v)), 1)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	prefix, err := tgraph.Slice(g, ival.New(0, 3*V/4))
	if err != nil {
		t.Fatalf("slice prefix: %v", err)
	}
	seedable := 0
	for _, name := range Names() {
		if !SupportsIncremental(name) {
			continue
		}
		seedable++
		run := func(g *tgraph.Graph, seeds []*core.PartitionedState) *core.Result {
			return runSeeded(t, name, g, name, 4, seeds)
		}
		cold := run(g, nil)
		seeded := run(g, run(prefix, nil).Seed().StatesFor(g))
		requireSameStates(t, name, cold, seeded)
		saved := cold.Metrics.Supersteps - seeded.Metrics.Supersteps
		if saved < 0 || saved == 0 && name != "fast" {
			t.Errorf("%s: seeded run took %d supersteps, cold %d — seeding saved nothing",
				name, seeded.Metrics.Supersteps, cold.Metrics.Supersteps)
		}
	}
	if seedable == 0 {
		t.Fatal("no algorithm supports seeding")
	}
}
