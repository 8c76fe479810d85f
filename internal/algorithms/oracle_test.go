package algorithms

import (
	"testing"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// tinyProfiles are small random temporal graphs, one per lifespan
// distribution, and one whose vertices come and go.
func tinyProfiles() []gen.Profile {
	churn := gen.Tiny("t-churn", 40, 4, 12, gen.LongLife)
	churn.VertexChurn = true
	return []gen.Profile{
		gen.Tiny("t-unit", 40, 4, 6, gen.UnitLife),
		gen.Tiny("t-long", 40, 4, 8, gen.LongLife),
		gen.Tiny("t-mixed", 50, 5, 10, gen.MixedLife),
		gen.Tiny("t-full", 30, 3, 6, gen.FullLife),
		churn,
	}
}

// tinyGraphs builds tinyProfiles at three seeds each, for oracle validation.
func tinyGraphs(t *testing.T) []*tgraph.Graph {
	t.Helper()
	var gs []*tgraph.Graph
	for _, p := range tinyProfiles() {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := gen.Generate(p, seed)
			if err != nil {
				t.Fatalf("generate %s/%d: %v", p.Name, seed, err)
			}
			gs = append(gs, g)
		}
	}
	return gs
}

// TestICMMessagesFewerOnLongLifespans checks the paper's core performance
// claim at the primitive level: on long-lifespan graphs ICM sends far fewer
// messages than per-snapshot execution would.
func TestICMMessagesFewerOnLongLifespans(t *testing.T) {
	g, err := gen.Generate(gen.Tiny("msg-long", 60, 5, 16, gen.LongLife), 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunBFS(g, g.VertexAt(0).ID, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A per-snapshot run sends at least one message per (reached edge,
	// snapshot); ICM must stay well below the edge-instance count.
	var instances int64
	for i := 0; i < g.NumEdges(); i++ {
		instances += g.Edge(i).Lifespan.Intersect(ival.New(0, g.Horizon())).Length()
	}
	if r.Metrics.Messages*2 > instances {
		t.Errorf("ICM messages %d vs %d edge instances: expected sharing", r.Metrics.Messages, instances)
	}
}

// TestPerfectSharingOnStaticGraphs pins the Sec. VII-B6 claim: when every
// entity spans the whole lifetime (usrn-like), ICM shares everything — one
// compute call per vertex per activation wave and one message per edge, no
// matter how many snapshots the graph has.
func TestPerfectSharingOnStaticGraphs(t *testing.T) {
	p := gen.Tiny("static", 64, 4, 32, gen.FullLife)
	p.PropSegments = 1 // time-invariant properties
	g, err := gen.Generate(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunBFS(g, g.VertexAt(0).ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex converges to a single partitioned state: BFS levels are
	// constant over the whole (shared) lifetime.
	if r.Stats.MaxPartitions != 1 {
		t.Errorf("static graph should keep 1 partition per vertex, saw %d", r.Stats.MaxPartitions)
	}
	// Messages are shared across all 32 snapshots: the total must be well
	// below one per (edge, snapshot).
	perSnapshot := int64(g.NumEdges()) * int64(g.SnapshotCount())
	if r.Metrics.Messages*8 > perSnapshot {
		t.Errorf("messages %d should be <12.5%% of %d edge-instances", r.Metrics.Messages, perSnapshot)
	}
}
