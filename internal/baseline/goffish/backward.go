package goffish

import (
	"sync"
	"time"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// RunLD computes the latest departure towards target with a descending
// time-march: the outer loop visits snapshots newest-first and vertex states
// (the latest valid presence time) persist across snapshots, with messages
// flowing to earlier snapshots — GoFFish's reverse-traversal mode.
func RunLD(g *tgraph.Graph, target tgraph.VertexID, deadline ival.Time, workers int) (*Result, error) {
	start := time.Now()
	if workers <= 0 {
		workers = 4
	}
	n := g.NumVertices()
	res := &Result{Graph: g, States: make([]any, n)}
	latest := make([]ival.Time, n) // latest valid presence, -1 = none
	for v := range latest {
		latest[v] = -1
	}
	horizon := g.Horizon()
	if deadline <= 0 || deadline > horizon {
		deadline = horizon
	}
	tgt := g.IndexOf(target)
	if tgt >= 0 {
		life := g.VertexAt(tgt).Lifespan
		if life.Start < deadline {
			end := deadline
			if life.End < end {
				end = life.End
			}
			latest[tgt] = end - 1
		}
	}

	// March descending: at snapshot t, every alive edge instance u→v is a
	// candidate departure; its validity depends only on v's presence at
	// t + travel-time, which later iterations have already finalized.
	for t := horizon - 1; t >= g.Lifespan().Start; t-- {
		res.Metrics.Supersteps++
		t0 := time.Now()
		// Phase 1 (parallel, read-only on latest): find vertices whose
		// presence extends to t. A relax at t can only depend on presence at
		// t+travel-time, which later snapshots already finalized, so the
		// within-snapshot ordering is immaterial.
		var mu sync.Mutex
		var updates []int
		var calls, messages, bytes int64
		parallelFor(n, workers, func(v int) {
			vert := g.VertexAt(v)
			if !vert.Lifespan.Contains(t) || latest[v] >= t {
				return
			}
			evaluated := false
			hit := false
			for _, ei := range g.OutEdges(v) {
				e := g.Edge(int(ei))
				if !e.Lifespan.Contains(t) {
					continue
				}
				tt, _, ok := travelProps(e, t)
				if !ok {
					continue
				}
				evaluated = true
				w := g.IndexOf(e.Dst)
				if latest[w] >= t+tt {
					hit = true
				}
			}
			if !evaluated {
				return
			}
			mu.Lock()
			calls++
			if hit {
				updates = append(updates, v)
				// One reverse notification message per successful relax.
				messages++
				bytes += 16
			}
			mu.Unlock()
		})
		// Phase 2: apply.
		for _, v := range updates {
			latest[v] = t
		}
		res.Metrics.ComputeCalls += calls
		res.Metrics.Messages += messages
		res.Metrics.Delivered += messages
		res.Metrics.MessageBytes += bytes
		res.Metrics.ComputeNS += int64(time.Since(t0))
	}
	for v := 0; v < n; v++ {
		res.States[v] = int64(latest[v])
	}
	res.Metrics.MakespanNS = int64(time.Since(start))
	return res, nil
}
