package main

import (
	"strings"
	"testing"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// Replaying every tick through a stream.Accumulator must reproduce the
// generated graph exactly: vertex and edge tables, lifespans, properties,
// adjacency, hull and horizon.
func TestEventLogRoundTrip(t *testing.T) {
	profiles := []gen.Profile{
		gen.MAGLike(0.1),     // vertex churn, long lifespans, 3 property segments
		gen.TwitterLike(0.1), // no churn
		gen.RedditLike(0.1),  // mostly unit-length edges
		gen.USRNLike(0.05),   // grid, 10 property segments
	}
	stretched := gen.MAGLike(0.05)
	stretched.Snapshots = liveSnapshots // the live_refresh shape
	profiles = append(profiles, stretched)
	for _, p := range profiles {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := gen.Generate(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			ticks, err := eventLog(g)
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
			acc := stream.NewAccumulator()
			events := 0
			for tick, batch := range ticks {
				for _, ev := range batch {
					if int(ev.T) != tick {
						t.Fatalf("%s: event at time %d filed under tick %d", p.Name, ev.T, tick)
					}
					if err := acc.Apply(ev); err != nil {
						t.Fatalf("%s seed %d tick %d: %v", p.Name, seed, tick, err)
					}
					events++
				}
			}
			got, err := acc.Graph(g.Horizon())
			if err != nil {
				t.Fatal(err)
			}
			if err := tgraph.Equal(got, g); err != nil {
				t.Errorf("%s seed %d: replay of %d events differs: %v", p.Name, seed, events, err)
			}
		}
	}
}

// Within a tick: additions, then properties, then removals.
func TestEventLogTickOrder(t *testing.T) {
	g, err := gen.Generate(gen.MAGLike(0.1), 7)
	if err != nil {
		t.Fatal(err)
	}
	ticks, err := eventLog(g)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[stream.Op]int{stream.AddVertex: 0, stream.AddEdge: 1, stream.SetVertexProp: 2,
		stream.SetEdgeProp: 3, stream.RemoveEdge: 4, stream.RemoveVertex: 5}
	for tick, batch := range ticks {
		for i := 1; i < len(batch); i++ {
			if rank[batch[i-1].Op] > rank[batch[i].Op] {
				t.Fatalf("tick %d: op %d before op %d", tick, batch[i-1].Op, batch[i].Op)
			}
		}
	}
}

// A property value that stops before its owner does cannot be expressed as
// events and must be refused rather than silently extended.
func TestEventLogRejectsPropertyGap(t *testing.T) {
	b := tgraph.NewBuilder(2, 1)
	b.AddVertex(1, ival.New(0, 10)).AddVertex(2, ival.New(0, 10))
	b.AddEdge(1, 1, 2, ival.New(0, 10))
	b.SetEdgeProp(1, tgraph.PropTravelTime, ival.New(0, 4), 3)
	b.SetEdgeProp(1, tgraph.PropTravelTime, ival.New(6, 10), 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eventLog(g); err == nil || !strings.Contains(err.Error(), "cannot unset") {
		t.Errorf("gap in property values: got error %v", err)
	}
}
