package main

import (
	"fmt"

	ival "graphite/internal/interval"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// eventLog decomposes a temporal graph into the time-ordered mutation log
// that builds it: ticks[t] holds every event with time t. Within a tick the
// order is additions before the properties that need their owner, removals
// last (av, ae, vp/ep, re, rv), which is the order stream.Accumulator accepts
// for any valid graph: an edge never starts before or outlives its endpoints,
// and a property value never lies outside its owner's lifespan.
//
// Replaying every tick through a stream.Accumulator and materializing at
// g.Horizon() reproduces g exactly (see TestEventLogRoundTrip). The event
// model has no "unset property" operation, so a graph whose property values
// leave a gap inside the owner's lifespan cannot be expressed and is
// rejected.
func eventLog(g *tgraph.Graph) ([][]stream.Event, error) {
	ticks := make([][]stream.Event, int(g.Horizon())+1)
	// Five passes, one per event class, append in class order so every tick
	// comes out ordered without a sort.
	add := func(ev stream.Event) { ticks[ev.T] = append(ticks[ev.T], ev) }
	for i := range g.Vertices() {
		v := g.VertexAt(i)
		add(stream.Event{Op: stream.AddVertex, T: v.Lifespan.Start, V: v.ID})
	}
	for i := range g.Edges() {
		e := g.Edge(i)
		add(stream.Event{Op: stream.AddEdge, T: e.Lifespan.Start, E: e.ID, Src: e.Src, Dst: e.Dst})
	}
	for i := range g.Vertices() {
		v := g.VertexAt(i)
		for label, entries := range v.Props.All() {
			if err := propRuns(entries, v.Lifespan, fmt.Sprintf("vertex %d label %q", v.ID, label)); err != nil {
				return nil, err
			}
			for _, p := range entries {
				add(stream.Event{Op: stream.SetVertexProp, T: p.Interval.Start, V: v.ID, Label: label, Value: p.Value})
			}
		}
	}
	for i := range g.Edges() {
		e := g.Edge(i)
		for label, entries := range e.Props.All() {
			if err := propRuns(entries, e.Lifespan, fmt.Sprintf("edge %d label %q", e.ID, label)); err != nil {
				return nil, err
			}
			for _, p := range entries {
				add(stream.Event{Op: stream.SetEdgeProp, T: p.Interval.Start, E: e.ID, Label: label, Value: p.Value})
			}
		}
	}
	for i := range g.Edges() {
		if e := g.Edge(i); !e.Lifespan.IsUnbounded() {
			add(stream.Event{Op: stream.RemoveEdge, T: e.Lifespan.End, E: e.ID})
		}
	}
	for i := range g.Vertices() {
		if v := g.VertexAt(i); !v.Lifespan.IsUnbounded() {
			add(stream.Event{Op: stream.RemoveVertex, T: v.Lifespan.End, V: v.ID})
		}
	}
	return ticks, nil
}

// propRuns checks that one label's values (ascending by start, as the graph
// stores them) form a single gap-free run ending with the owner's lifespan —
// the only shape a sequence of "set property" events can produce.
func propRuns(entries []tgraph.PropEntry, life ival.Interval, what string) error {
	for i, p := range entries {
		end := life.End
		if i+1 < len(entries) {
			end = entries[i+1].Interval.Start
		}
		if p.Interval.End != end {
			return fmt.Errorf("eventlog: %s: value over %v ends before the next value or the owner's lifespan (%d); the event model cannot unset a property",
				what, p.Interval, end)
		}
	}
	return nil
}
