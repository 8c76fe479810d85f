// Package goffish implements the GoFFish-TS baseline of Sec. VII-A3 [12]:
// a temporal graph is processed as a sequence of snapshots with an outer
// loop over time; vertex states persist across snapshots and temporal
// messages are passed to the snapshot at which they take effect. Within a
// snapshot nothing is shared across time — each (vertex, snapshot)
// evaluation is a separate compute call and each edge emission a separate
// message, which is exactly the redundancy ICM's warp removes.
package goffish

import (
	"sync"
	"time"

	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// Result holds the per-vertex final states and the accumulated metrics.
//
// GoFFish folds no message on its way: a run counts a message delivered when
// it hands it on, the forward march when it queues an emission for the
// snapshot it lands in, LD and the clustering protocol when they count it
// sent. So Delivered equals Messages wherever every emission lands before
// the march ends.
type Result struct {
	Graph   *tgraph.Graph
	Metrics obs.RunEnd
	States  []any
}

// tmsg is a temporal message scheduled for a future snapshot.
type tmsg struct {
	dst int
	val any
}

// PathLogic abstracts the forward time-marching path algorithms (SSSP, EAT,
// RH, TMST, FAST): per-vertex states merged from arrivals, emissions over
// alive edge pieces.
type PathLogic interface {
	// InitState is the state of an untouched vertex.
	InitState() any
	// IsSource reports whether the vertex seeds journeys.
	IsSource(id tgraph.VertexID) bool
	// SourceActivates reports whether the source re-activates at every
	// snapshot (FAST starts a fresh journey per departure time).
	SourceActivates() bool
	// SeedState returns the source's state when it activates at t; ok is
	// false before the journey start time.
	SeedState(t ival.Time) (any, bool)
	// Merge folds the arrivals landing at snapshot t into the state,
	// reporting change.
	Merge(state any, msgs []any, t ival.Time) (any, bool)
	// Emit produces the message for departing over edge e at time t with
	// the given state; ok=false emits nothing.
	Emit(state any, e *tgraph.Edge, t ival.Time) (val any, arrive ival.Time, ok bool)
	// Reached reports whether the state represents a reached vertex.
	Reached(state any) bool
}

// pieceStartTimes returns, per vertex, the set of time-points at which one
// of its out-edge property pieces begins (the re-evaluation triggers).
func pieceStartTimes(g *tgraph.Graph) []map[ival.Time][]int32 {
	out := make([]map[ival.Time][]int32, g.NumVertices())
	for v := range out {
		out[v] = map[ival.Time][]int32{}
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(i)
		v := g.IndexOf(e.Src)
		starts := map[ival.Time]bool{e.Lifespan.Start: true}
		for _, entries := range e.Props.All() {
			for _, p := range entries {
				if x := p.Interval.Intersect(e.Lifespan); !x.IsEmpty() {
					starts[x.Start] = true
				}
			}
		}
		for t := range starts {
			out[v][t] = append(out[v][t], int32(i))
		}
	}
	return out
}

// RunForward marches snapshots in time order with the given path logic.
func RunForward(g *tgraph.Graph, logic PathLogic, workers int) (*Result, error) {
	start := time.Now()
	if workers <= 0 {
		workers = 4
	}
	n := g.NumVertices()
	res := &Result{Graph: g, States: make([]any, n)}
	for v := 0; v < n; v++ {
		res.States[v] = logic.InitState()
	}
	triggers := pieceStartTimes(g)
	future := map[ival.Time][]tmsg{}
	// March past the horizon far enough for every in-flight arrival to land.
	endT := g.Horizon() + maxTravelTime(g) + 1

	type emission struct {
		at  ival.Time
		msg tmsg
	}
	for t := g.Lifespan().Start; t < endT; t++ {
		res.Metrics.Supersteps++
		// Group pending arrivals per vertex.
		inbox := map[int][]any{}
		for _, m := range future[t] {
			inbox[m.dst] = append(inbox[m.dst], m.val)
		}
		delete(future, t)

		t0 := time.Now()
		var mu sync.Mutex
		var emits []emission
		var computeCalls, messages, bytes int64
		parallelFor(n, workers, func(v int) {
			vert := g.VertexAt(v)
			if !vert.Lifespan.Contains(t) {
				return
			}
			msgs := inbox[v]
			st := res.States[v]
			isSource := logic.IsSource(vert.ID)
			sourceActive := isSource && (logic.SourceActivates() || !logic.Reached(st))
			pieceEdges := triggers[v][t]
			reEval := logic.Reached(st) && len(pieceEdges) > 0
			if len(msgs) == 0 && !sourceActive && !reEval {
				return
			}
			var localEmits []emission
			var localMsgs, localBytes int64
			calls := int64(1)

			changed := false
			if sourceActive {
				if seeded, ok := logic.SeedState(t); ok {
					st, changed = seeded, true
				}
			}
			if len(msgs) > 0 {
				var ch bool
				st, ch = logic.Merge(st, msgs, t)
				changed = changed || ch
			}
			emit := func(e *tgraph.Edge) {
				val, arrive, ok := logic.Emit(st, e, t)
				if !ok {
					return
				}
				dst := g.IndexOf(e.Dst)
				localEmits = append(localEmits, emission{at: arrive, msg: tmsg{dst: dst, val: val}})
				localMsgs++
				localBytes += 16
			}
			if changed && logic.Reached(st) {
				// Depart over every edge piece alive now.
				for _, ei := range g.OutEdges(v) {
					e := g.Edge(int(ei))
					if e.Lifespan.Contains(t) {
						emit(e)
					}
				}
			} else if reEval {
				// Only the pieces that open at this snapshot.
				for _, ei := range pieceEdges {
					emit(g.Edge(int(ei)))
				}
			}
			mu.Lock()
			res.States[v] = st
			emits = append(emits, localEmits...)
			computeCalls += calls
			messages += localMsgs
			bytes += localBytes
			mu.Unlock()
		})
		res.Metrics.ComputeCalls += computeCalls
		res.Metrics.ComputeNS += int64(time.Since(t0))

		t1 := time.Now()
		for _, em := range emits {
			if em.at < endT {
				future[em.at] = append(future[em.at], em.msg)
				res.Metrics.Delivered++
			}
		}
		res.Metrics.Messages += messages
		res.Metrics.MessageBytes += bytes
		res.Metrics.MessagingNS += int64(time.Since(t1))
	}
	res.Metrics.MakespanNS = int64(time.Since(start))
	return res, nil
}

// maxTravelTime scans the travel-time property for its largest value.
func maxTravelTime(g *tgraph.Graph) ival.Time {
	max := ival.Time(1)
	for i := 0; i < g.NumEdges(); i++ {
		for _, p := range g.Edge(i).Props.Entries(tgraph.PropTravelTime) {
			if p.Value > max {
				max = p.Value
			}
		}
	}
	return max
}

// parallelFor runs fn over [0, n) with the given number of workers.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		go func(lo int) {
			defer wg.Done()
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(w * chunk)
	}
	wg.Wait()
}
