package algorithms

import (
	"fmt"
	"reflect"
	"testing"

	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
)

// TestBalancedPartitionerSameResults is the placement half of the
// determinism contract: whichever worker a vertex is placed on — modulo
// hashing or the skew-aware PartitionBalanced — and however many workers
// there are, a min-fold algorithm's partitioned states are bit-identical.
// (Message arrival order may legitimately differ across placements, so
// order-sensitive float folds are out of scope here; PageRank's identity
// across drivers is TestClusterMeshMatchesSingleProcess'.)
func TestBalancedPartitionerSameResults(t *testing.T) {
	p := gen.Tiny("placement", 40, 4, 10, gen.MixedLife)
	g, err := gen.Generate(p, 11)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	source := g.VertexAt(0).ID
	weights := g.WorkWeights()

	run := func(workers int, balanced bool) [2]*core.Result {
		t.Helper()
		sssp := &SSSP{Source: source}
		eat := &EAT{Source: source}
		progs := [2]core.Program{sssp, eat}
		opts := [2]core.Options{sssp.Options(), eat.Options()}
		var out [2]*core.Result
		for i := range progs {
			o := opts[i]
			o.NumWorkers = workers
			if balanced {
				o.Partitioner = engine.PartitionBalanced(weights)
			}
			r, err := runWith(g, progs[i], o)
			if err != nil {
				t.Fatalf("run(workers=%d balanced=%v): %v", workers, balanced, err)
			}
			out[i] = r
		}
		return out
	}

	base := run(1, false)
	names := [2]string{"SSSP", "EAT"}
	for _, workers := range []int{2, 3, 5} {
		for _, balanced := range []bool{false, true} {
			got := run(workers, balanced)
			label := fmt.Sprintf("workers=%d balanced=%v", workers, balanced)
			for a := range got {
				for v := 0; v < g.NumVertices(); v++ {
					if !reflect.DeepEqual(base[a].State(v).Parts(), got[a].State(v).Parts()) {
						t.Fatalf("%s [%s]: vertex %d partitions diverge:\nbase: %v\n got: %v",
							names[a], label, v, base[a].State(v).Parts(), got[a].State(v).Parts())
					}
				}
			}
		}
	}
}
