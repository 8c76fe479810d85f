package algorithms

import (
	"slices"

	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// PageRank is the time-independent PR of Sec. V with the paper's fixed
// superstep budget (10 rank updates). Each time-point evolves exactly like
// PageRank on that snapshot: messages carry rank/outdegree and are valid
// only while the carrying edge is alive; out-degree is evaluated piecewise
// over the sender's degree partition so every message interval has a
// constant degree.
//
// N is the total vertex count of the temporal graph (not the per-snapshot
// count) and rank mass from vertices with zero out-degree at a time-point is
// not redistributed — the plain Pregel formulation, mirrored by the oracle.
type PageRank struct {
	Iterations int     // rank updates; the paper uses 10
	Damping    float64 // typically 0.85

	degParts [][]IntervalValue // per vertex: out-degree per interval
}

// NewPageRank precomputes the per-vertex temporal out-degree partition.
func NewPageRank(g *tgraph.Graph, iterations int, damping float64) *PageRank {
	a := &PageRank{Iterations: iterations, Damping: damping}
	if a.Iterations <= 0 {
		a.Iterations = 10
	}
	if a.Damping <= 0 {
		a.Damping = 0.85
	}
	a.degParts = degreePartitions(g)
	return a
}

// degreePartitions splits every vertex's lifespan at its out-edges' lifespan
// boundaries and annotates each piece with the out-degree. All vertices'
// pieces share one slab, sized by a counting sweep before the filling one;
// one bounds scratch serves every vertex in both sweeps, and the degrees come
// from a running sum of edge starts and ends per bound rather than a count
// over the edges per piece.
func degreePartitions(g *tgraph.Graph) [][]IntervalValue {
	nV := g.NumVertices()
	var bounds []ival.Time
	off := make([]int, nV+1)
	for v := 0; v < nV; v++ {
		bounds = degreeBounds(bounds[:0], g, v)
		off[v+1] = off[v] + len(bounds) - 1
	}
	slab := make([]IntervalValue, off[nV])
	parts := make([][]IntervalValue, nV)
	var delta []int64 // per bound: edges starting there minus edges ending there
	for v := 0; v < nV; v++ {
		bounds = degreeBounds(bounds[:0], g, v)
		delta = append(delta[:0], make([]int64, len(bounds))...)
		life := g.VertexAt(v).Lifespan
		for _, ei := range g.OutEdges(v) {
			if x := g.Edge(int(ei)).Lifespan.Intersect(life); !x.IsEmpty() {
				i, _ := slices.BinarySearch(bounds, x.Start)
				j, _ := slices.BinarySearch(bounds, x.End)
				delta[i]++
				delta[j]--
			}
		}
		pieces := slab[off[v]:off[v+1]:off[v+1]]
		deg := int64(0)
		for i := range pieces {
			deg += delta[i]
			pieces[i] = IntervalValue{Interval: ival.New(bounds[i], bounds[i+1]), Value: deg}
		}
		parts[v] = pieces
	}
	return parts
}

// degreeBounds appends, ascending and distinct, the ends of vertex v's
// lifespan and of each of its out-edges' lifespans within it.
func degreeBounds(bounds []ival.Time, g *tgraph.Graph, v int) []ival.Time {
	life := g.VertexAt(v).Lifespan
	bounds = append(bounds, life.Start, life.End)
	for _, ei := range g.OutEdges(v) {
		if x := g.Edge(int(ei)).Lifespan.Intersect(life); !x.IsEmpty() {
			bounds = append(bounds, x.Start, x.End)
		}
	}
	slices.Sort(bounds)
	return slices.Compact(bounds)
}

// Init seeds the uniform rank.
func (a *PageRank) Init(v *core.VertexCtx) {
	v.SetState(v.Lifespan(), 1.0/float64(v.NumVertices()))
}

// Compute sums the incoming rank mass for the active interval.
func (a *PageRank) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	n := float64(v.NumVertices())
	if v.Superstep() == 1 {
		// Re-claim the uniform rank so the initial scatter fires.
		v.SetState(t, 1.0/n)
		return
	}
	var sum float64
	for _, m := range msgs {
		sum += m.Float()
	}
	v.SetState(t, (1-a.Damping)/n+a.Damping*sum)
}

// Scatter divides the rank by the out-degree, piecewise over the degree
// partition so each message interval has a constant divisor. After the last
// rank update nothing is sent.
func (a *PageRank) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	if v.Superstep() > a.Iterations {
		return nil
	}
	rank := state.(float64)
	// The degree pieces are sorted, disjoint and cover the lifespan: start at
	// the one holding t.Start and stop at the first one past t.
	parts := a.degParts[v.Index()]
	first, end := 0, len(parts)
	for first < end {
		mid := int(uint(first+end) >> 1)
		if parts[mid].Interval.End <= t.Start {
			first = mid + 1
		} else {
			end = mid
		}
	}
	for _, dp := range parts[first:] {
		if dp.Interval.Start >= t.End {
			break
		}
		if dp.Value == 0 {
			continue
		}
		v.Emit(dp.Interval.Intersect(t), codec.FloatWord(rank/float64(dp.Value)))
	}
	return nil
}

// CombineWarp sums rank contributions in a group.
func (a *PageRank) CombineWarp(x, y codec.Word) codec.Word {
	return codec.FloatWord(x.Float() + y.Float())
}

// Options returns the run options PageRank needs: all vertices active for a
// fixed number of supersteps.
func (a *PageRank) Options() core.Options {
	return core.Options{
		ActivateAll:   true,
		MaxSupersteps: a.Iterations + 1,
		PayloadCodec:  codec.Float64{},
		Combine:       true,
	}
}

// RunPageRank executes time-independent PageRank.
func RunPageRank(g *tgraph.Graph, iterations int, workers int) (*core.Result, error) {
	a := NewPageRank(g, iterations, 0.85)
	opts := a.Options()
	opts.NumWorkers = workers
	return core.Run(g, a, opts)
}
