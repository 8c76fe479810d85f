package stream

import (
	"testing"

	"graphite/internal/gen"
	"graphite/internal/tgraph"
)

// TestAccumulatorRebuildsGeneratedGraphs replays whole generated graphs
// through the accumulator: the materialized graph must equal the original
// entity for entity — dense order, clipped property runs and all.
func TestAccumulatorRebuildsGeneratedGraphs(t *testing.T) {
	for _, p := range []gen.Profile{gen.MAGLike(0.1), gen.TwitterLike(0.1), gen.USRNLike(0.1)} {
		g, err := gen.Generate(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		acc := NewAccumulator()
		for _, ev := range EventsOf(g) {
			if err := acc.Apply(ev); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
		}
		got, err := acc.Graph(0)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := tgraph.Equal(got, g); err != nil {
			t.Errorf("%s: materialized graph differs: %v", p.Name, err)
		}
	}
}

var sinkGraph *tgraph.Graph

// BenchmarkAccumulatorGraph materializes live_refresh's graph half-way
// through its event log, when most entities are still open: what every
// ingested batch pays to publish an epoch.
func BenchmarkAccumulatorGraph(b *testing.B) {
	g, err := gen.Generate(gen.MAGLike(0.5), 42)
	if err != nil {
		b.Fatal(err)
	}
	acc := NewAccumulator()
	for _, ev := range EventsOf(g) {
		if ev.T >= g.Horizon()/2 {
			break
		}
		if err := acc.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := acc.Graph(0)
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = s
	}
}

// BenchmarkEpochPatch publishes one live_refresh-sized epoch: the MAGLike(0.5)
// graph stretched over live_refresh's 240 ticks, patched up to half-way, then
// the next tick's entities built and patched onto it — what every ingested
// batch pays. The patch is held to the rebuild once, untimed.
func BenchmarkEpochPatch(b *testing.B) {
	p := gen.MAGLike(0.5)
	p.Snapshots = 240
	g, err := gen.Generate(p, 42)
	if err != nil {
		b.Fatal(err)
	}
	acc := NewAccumulator()
	var applied []Event
	for _, ev := range EventsOf(g) {
		if ev.T > 120 {
			break
		}
		if ev.T == 120 && acc.base.NumVertices() == 0 {
			if _, err := acc.Patch(); err != nil {
				b.Fatal(err)
			}
		}
		if err := acc.Apply(ev); err != nil {
			b.Fatal(err)
		}
		applied = append(applied, ev)
	}
	want, err := oracleGraph(applied, 0)
	if err != nil {
		b.Fatal(err)
	}
	got, err := acc.Graph(0)
	if err != nil {
		b.Fatal(err)
	}
	if err := tgraph.Equal(got, want); err != nil {
		b.Fatalf("patched epoch differs from the rebuild: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := acc.fold()
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = s
	}
	b.ReportMetric(float64(len(acc.ov.v)+len(acc.ov.e)), "entities/op")
}
