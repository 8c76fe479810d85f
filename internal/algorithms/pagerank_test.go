package algorithms

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// degreePartitionOracle is the per-vertex derivation degreePartitions
// replaced, kept as the test reference: a fresh bounds slice and a general
// sort per vertex, and the out-degree counted over all edges per piece.
func degreePartitionOracle(g *tgraph.Graph, v int) []IntervalValue {
	life := g.VertexAt(v).Lifespan
	bounds := []ival.Time{life.Start, life.End}
	for _, ei := range g.OutEdges(v) {
		x := g.Edge(int(ei)).Lifespan.Intersect(life)
		if !x.IsEmpty() {
			bounds = append(bounds, x.Start, x.End)
		}
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	var out []IntervalValue
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		piece := ival.New(bounds[i], bounds[i+1])
		out = append(out, IntervalValue{Interval: piece, Value: int64(g.OutDegreeAt(v, piece.Start))})
	}
	return out
}

// scanPageRank is PageRank with the Scatter it had before: every call walks
// the vertex's whole degree partition.
type scanPageRank struct{ *PageRank }

func (a scanPageRank) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if v.Superstep() > a.Iterations {
		return nil
	}
	rank := state.(float64)
	for _, dp := range a.degParts[v.Index()] {
		x := dp.Interval.Intersect(t)
		if x.IsEmpty() || dp.Value == 0 {
			continue
		}
		v.Emit(x, codec.FloatWord(rank/float64(dp.Value)))
	}
	return nil
}

func pageRankTestGraphs(t *testing.T) []*tgraph.Graph {
	gs := tinyGraphs(t)
	for _, p := range []gen.Profile{gen.SkewedLike(0.05), gen.TwitterLike(0.02)} {
		g, err := gen.Generate(p, 7)
		if err != nil {
			t.Fatalf("generate %s: %v", p.Name, err)
		}
		gs = append(gs, g)
	}
	return gs
}

// TestDegreePartitionsMatchOracle compares the slab-backed degree partitions
// with the per-vertex reference, piece for piece, and checks the slab layout:
// a vertex's slice cannot grow into its neighbour's.
func TestDegreePartitionsMatchOracle(t *testing.T) {
	for gi, g := range pageRankTestGraphs(t) {
		parts := degreePartitions(g)
		for v := 0; v < g.NumVertices(); v++ {
			if want := degreePartitionOracle(g, v); !slices.Equal(parts[v], want) {
				t.Fatalf("graph %d vertex %d: degree partition %v, oracle %v", gi, v, parts[v], want)
			}
			if len(parts[v]) != cap(parts[v]) {
				t.Fatalf("graph %d vertex %d: slab slice has spare capacity %d", gi, v, cap(parts[v])-len(parts[v]))
			}
		}
	}
}

// TestPageRankScatterBitIdentical runs PageRank with the searched Scatter and
// with the full-scan one it replaced: same pieces emitted in the same order
// means every rank agrees to the bit.
func TestPageRankScatterBitIdentical(t *testing.T) {
	for gi, g := range pageRankTestGraphs(t) {
		run := func(prog core.Program, opts core.Options) *core.Result {
			opts.NumWorkers = 3
			r, err := core.Run(g, prog, opts)
			if err != nil {
				t.Fatalf("graph %d: %v", gi, err)
			}
			return r
		}
		a := NewPageRank(g, 6, 0.85)
		got, want := run(a, a.Options()), run(scanPageRank{a}, a.Options())
		for v := 0; v < g.NumVertices(); v++ {
			gp, wp := got.State(v).Parts(), want.State(v).Parts()
			if len(gp) != len(wp) {
				t.Fatalf("graph %d vertex %d: %d partitions, full scan %d", gi, v, len(gp), len(wp))
			}
			for k := range gp {
				if gp[k].Interval != wp[k].Interval ||
					math.Float64bits(gp[k].Value.(float64)) != math.Float64bits(wp[k].Value.(float64)) {
					t.Fatalf("graph %d vertex %d: %v, full scan %v", gi, v, gp[k], wp[k])
				}
			}
		}
	}
}

// TestDeliveredCountsWhatCrosses: Metrics.Delivered counts the messages that
// reached an inbox after each sender folded its outboxes. Without a combiner
// that is every message sent; under PageRank's sum combiner at two workers it
// is strictly fewer, of the same messages sent. The trace, the registry and
// its /metrics exposition report the same count.
func TestDeliveredCountsWhatCrosses(t *testing.T) {
	g, err := gen.Generate(gen.SkewedLike(0.05), 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, combine bool) *core.Result {
		t.Helper()
		prog, opts, err := New(g, "pr", Params{Iterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		opts.NumWorkers, opts.DisableWarpCombiner = workers, !combine
		rec, reg := &obs.Recorder{}, obs.NewRegistry()
		opts.Tracer, opts.Registry = rec, reg
		r, err := core.Run(g, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		var traced int64
		for _, e := range rec.Events() {
			if end, ok := e.(obs.SuperstepEnd); ok {
				traced += end.Delivered
			}
		}
		if traced != r.Metrics.Delivered || reg.Counter(obs.CDelivered).Load() != r.Metrics.Delivered {
			t.Errorf("%d workers, combine %v: delivered %d, traced %d, registry %d", workers, combine,
				r.Metrics.Delivered, traced, reg.Counter(obs.CDelivered).Load())
		}
		var prom bytes.Buffer
		obs.WritePrometheus(&prom, reg)
		if sample := fmt.Sprintf("\n%s %d\n", obs.PromName(obs.CDelivered, "counter"), r.Metrics.Delivered); !strings.Contains(prom.String(), sample) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(sample))
		}
		return r
	}
	for workers := 1; workers <= 2; workers++ {
		if m := run(workers, false).Metrics; m.Delivered != m.Messages {
			t.Errorf("%d workers, no combiner: delivered %d of %d messages, want all", workers, m.Delivered, m.Messages)
		}
	}
	folded, plain := run(2, true).Metrics, run(2, false).Metrics
	if folded.Messages != plain.Messages || folded.Delivered >= folded.Messages {
		t.Errorf("2 workers: %d of %d messages delivered under the combiner (%d sent without it), want fewer than sent",
			folded.Delivered, folded.Messages, plain.Messages)
	}
	t.Logf("PageRank at 2 workers: %d messages sent, %d delivered", folded.Messages, folded.Delivered)
}
