package tgraph_test

import (
	"fmt"
	"testing"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// benchGraphs are the two graphs the end-to-end benchmark serves and
// refreshes: serve_cold's TwitterLike(1) and live_refresh's MAGLike(0.5).
func benchGraphs(b *testing.B) map[string]*tgraph.Graph {
	b.Helper()
	out := map[string]*tgraph.Graph{}
	for _, p := range []gen.Profile{gen.TwitterLike(1), gen.MAGLike(0.5)} {
		g, err := gen.Generate(p, 42)
		if err != nil {
			b.Fatal(err)
		}
		out[fmt.Sprintf("%s-V%d-E%d", p.Name, g.NumVertices(), g.NumEdges())] = g
	}
	return out
}

var sinkGraph *tgraph.Graph

// BenchmarkSlice clips each graph to the first half of its lifetime, the
// window the benchmark's tgraph.slice_ms probe and a windowed /v1/run use.
func BenchmarkSlice(b *testing.B) {
	for name, g := range benchGraphs(b) {
		w := ival.New(0, g.Horizon()/2)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := tgraph.Slice(g, w)
				if err != nil {
					b.Fatal(err)
				}
				sinkGraph = s
			}
		})
	}
}

// BenchmarkBuild feeds every vertex, edge and property entry of a graph
// through a fresh Builder and builds it: what a text load, gen and (with
// its own bookkeeping on top) stream.Accumulator.Graph pay per graph.
func BenchmarkBuild(b *testing.B) {
	for name, g := range benchGraphs(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := rebuild(g)
				if err != nil {
					b.Fatal(err)
				}
				sinkGraph = s
			}
		})
	}
}

// rebuild re-ingests g entry by entry through the public Builder API.
func rebuild(g *tgraph.Graph) (*tgraph.Graph, error) {
	b := tgraph.NewBuilder(g.NumVertices(), g.NumEdges())
	for i := range g.Vertices() {
		v := g.VertexAt(i)
		b.AddVertex(v.ID, v.Lifespan)
		for label, entries := range v.Props.All() {
			for _, p := range entries {
				b.SetVertexProp(v.ID, label, p.Interval, p.Value)
			}
		}
	}
	for i := range g.Edges() {
		e := g.Edge(i)
		b.AddEdge(e.ID, e.Src, e.Dst, e.Lifespan)
		for label, entries := range e.Props.All() {
			for _, p := range entries {
				b.SetEdgeProp(e.ID, label, p.Interval, p.Value)
			}
		}
	}
	return b.Build()
}
