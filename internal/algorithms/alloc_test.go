package algorithms_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/gen"
	"graphite/internal/tgraph"
)

// mallocsOf runs the catalog algorithm once to warm the pools and the plan
// memoised on g, then again counting heap objects. The collector is off from
// before the warm-up to after the count: a sync.Pool survives one collection
// (in its victim cache) but not two, so two cycles between the warm-up's puts
// and the counted run's gets emptied the engine's arenas, and refilling them
// counted as 400 to 1 500 more objects (an engine.pool_misses delta of 60 to
// 200, where a warm run misses a few times at most). A counted run allocates
// about a megabyte.
func mallocsOf(t *testing.T, g *tgraph.Graph, algo string, p algorithms.Params) (objects uint64, r *core.Result) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() *core.Result {
		prog, opts, err := algorithms.New(g, algo, p)
		if err != nil {
			t.Fatal(err)
		}
		opts.NumWorkers = 2
		r, err := core.Run(g, prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r = run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, r
}

// TestObjectsFollowStateWritesNotMessages is the machine-independent form of
// "a message is not a heap object". Two runs of one program over one graph
// that differ in how much traffic they move — PageRank at 5 and at 10
// iterations, TMST from two sources — may differ in heap objects by one per
// state write they differ by (vertex state is still an any: a SetState boxes
// its value) plus a fixed cost per extra superstep (a goroutine per worker
// per phase), and by nothing that scales with messages: the extra messages
// are at least twice that allowance.
func TestObjectsFollowStateWritesNotMessages(t *testing.T) {
	if raceEnabled {
		t.Skip("object counts skipped under -race")
	}
	const perStep = 64
	check := func(t *testing.T, name string, objA, objB uint64, a, b *core.Result) {
		t.Helper()
		if a.Metrics.Messages > b.Metrics.Messages {
			objA, objB, a, b = objB, objA, b, a
		}
		msgs := b.Metrics.Messages - a.Metrics.Messages
		writes := abs(b.Stats.StateUpdates - a.Stats.StateUpdates)
		steps := abs(int64(b.Metrics.Supersteps - a.Metrics.Supersteps))
		allowed := writes + perStep*(steps+1)
		extra := int64(objB) - int64(objA)
		t.Logf("%s: %d extra messages, %d extra state writes, %d extra supersteps: %d extra objects (allowed %d)",
			name, msgs, writes, steps, extra, allowed)
		if msgs < 2*allowed {
			t.Fatalf("%s: the runs differ by %d messages, too few to tell from the %d objects allowed", name, msgs, allowed)
		}
		if extra > allowed {
			t.Errorf("%s: %d more objects for %d more messages and %d more state writes: want at most %d",
				name, extra, msgs, writes, allowed)
		}
	}

	skewed, err := gen.Generate(gen.SkewedLike(0.1), 42)
	if err != nil {
		t.Fatal(err)
	}
	o5, r5 := mallocsOf(t, skewed, "pr", algorithms.Params{Iterations: 5})
	o10, r10 := mallocsOf(t, skewed, "pr", algorithms.Params{Iterations: 10})
	check(t, "pagerank at 5 and 10 iterations", o5, o10, r5, r10)

	twitter, err := gen.Generate(gen.TwitterLike(0.1), 42)
	if err != nil {
		t.Fatal(err)
	}
	// Two sources whose trees differ: the busiest source and a quiet one.
	var results []*core.Result
	var objects []uint64
	for i := 0; i < twitter.NumVertices() && len(results) < 2; i += twitter.NumVertices() / 7 {
		o, r := mallocsOf(t, twitter, "tmst", algorithms.Params{Source: twitter.VertexAt(i).ID})
		if len(results) == 0 || abs(r.Metrics.Messages-results[0].Metrics.Messages) > 1000 {
			results, objects = append(results, r), append(objects, o)
		}
	}
	if len(results) < 2 {
		t.Fatal("no two sources with different traffic")
	}
	check(t, "tmst from two sources", objects[0], objects[1], results[0], results[1])
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
