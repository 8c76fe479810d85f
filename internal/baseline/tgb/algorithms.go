package tgb

import (
	"math"
	"sort"

	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// Unreachable mirrors the algorithms package sentinel in results.
const Unreachable = int64(math.MaxInt64)

// PathResult is the outcome of a TGB path-algorithm run.
type PathResult struct {
	Graph   *tgraph.Graph
	Static  *Static
	Metrics *obs.RunEnd
	dist    []int64
	via     []int64
}

// replicasOf returns the replica index range of a temporal vertex.
func (r *PathResult) replicasOf(v int) (int, int) {
	lo, hi := r.Static.vrange[v][0], r.Static.vrange[v][1]
	return int(lo), int(hi)
}

// CostAt returns the best distance of vertex v by time t (the latest replica
// at or before t; chain edges have already propagated values forward).
func (r *PathResult) CostAt(v int, t ival.Time) int64 {
	lo, hi := r.replicasOf(v)
	best := Unreachable
	// Replicas are time-sorted: binary search the last one with T <= t.
	i := sort.Search(hi-lo, func(k int) bool { return r.Static.replicas[lo+k].T > t }) - 1
	if i >= 0 && r.dist[lo+i] != unreachable {
		best = r.dist[lo+i]
	}
	return best
}

// MinCost returns the minimum distance over all replicas of v.
func (r *PathResult) MinCost(v int) int64 {
	lo, hi := r.replicasOf(v)
	best := Unreachable
	for i := lo; i < hi; i++ {
		if r.dist[i] != unreachable && r.dist[i] < best {
			best = r.dist[i]
		}
	}
	return best
}

// EarliestReached returns the earliest replica time of v that was reached,
// or Unreachable.
func (r *PathResult) EarliestReached(v int) int64 {
	lo, hi := r.replicasOf(v)
	for i := lo; i < hi; i++ {
		if r.dist[i] != unreachable {
			return int64(r.Static.replicas[i].T)
		}
	}
	return Unreachable
}

// LatestReached returns the latest replica time of v that was reached, or
// -1.
func (r *PathResult) LatestReached(v int) int64 {
	lo, hi := r.replicasOf(v)
	for i := hi - 1; i >= lo; i-- {
		if r.dist[i] != unreachable {
			return int64(r.Static.replicas[i].T)
		}
	}
	return -1
}

// Parent returns the id of the via-vertex at v's earliest reached replica
// (TMST), or -1.
func (r *PathResult) Parent(v int) int64 {
	lo, hi := r.replicasOf(v)
	for i := lo; i < hi; i++ {
		if r.dist[i] != unreachable {
			if r.via[i] < 0 {
				return -1
			}
			return int64(r.Graph.VertexAt(int(r.via[i])).ID)
		}
	}
	return -1
}

// sourceSeeds seeds every replica of the source at or after startTime.
func sourceSeeds(g *tgraph.Graph, s *Static, source tgraph.VertexID, startTime ival.Time) map[int]int64 {
	seeds := map[int]int64{}
	si := g.IndexOf(source)
	if si < 0 {
		return seeds
	}
	lo, hi := s.vrange[si][0], s.vrange[si][1]
	for i := lo; i < hi; i++ {
		if s.replicas[i].T >= startTime {
			seeds[int(i)] = 0
		}
	}
	return seeds
}

// runPath builds the transformed graph and runs the VCM shortest-path over
// it.
func runPath(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time,
	chain ChainWeight, w EdgeWeight, workers int) (*PathResult, error) {
	si := g.IndexOf(source)
	extra := map[int][]ival.Time{}
	if si >= 0 {
		st := startTime
		if ls := g.VertexAt(si).Lifespan; st < ls.Start {
			st = ls.Start
		}
		extra[si] = []ival.Time{st}
	}
	s := TransformPath(g, chain, w, extra)
	seeds := sourceSeeds(g, s, source, startTime)
	dist, via, m, err := s.minDist(seeds, false, workers)
	if err != nil {
		return nil, err
	}
	return &PathResult{Graph: g, Static: s, Metrics: m, dist: dist, via: via}, nil
}

// RunSSSP runs temporal SSSP by travel cost on the transformed graph.
func RunSSSP(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*PathResult, error) {
	return runPath(g, source, startTime, ChainFree, CostWeight, workers)
}

// RunEAT runs earliest arrival time: zero weights, earliest reached replica.
func RunEAT(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*PathResult, error) {
	return runPath(g, source, startTime, ChainFree, ZeroWeight, workers)
}

// RunRH runs reachability (same transform as EAT; reached = any replica).
func RunRH(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*PathResult, error) {
	return runPath(g, source, startTime, ChainFree, ZeroWeight, workers)
}

// RunTMST runs the time-minimum spanning tree: the EAT transform with
// via-vertex tracking; Parent(v) at the earliest reached replica is the
// tree edge.
func RunTMST(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*PathResult, error) {
	return runPath(g, source, startTime, ChainFree, ZeroWeight, workers)
}

// RunFAST runs the fastest-journey transform: chains charge elapsed time,
// travel edges their travel time, so a replica's distance is the duration
// of a journey arriving by its time-point.
func RunFAST(g *tgraph.Graph, source tgraph.VertexID, startTime ival.Time, workers int) (*PathResult, error) {
	return runPath(g, source, startTime, ChainElapsed, TimeWeight, workers)
}

// RunLD runs latest departure towards target: the reverse traversal of the
// zero-weight transform seeded at the target's replicas before the deadline;
// LatestReached(v) is the latest valid departure.
func RunLD(g *tgraph.Graph, target tgraph.VertexID, deadline ival.Time, workers int) (*PathResult, error) {
	ti := g.IndexOf(target)
	if deadline <= 0 || deadline > g.Horizon() {
		deadline = g.Horizon()
	}
	extra := map[int][]ival.Time{}
	if ti >= 0 {
		life := g.VertexAt(ti).Lifespan
		last := deadline - 1
		if life.End-1 < last {
			last = life.End - 1
		}
		if last >= life.Start {
			extra[ti] = []ival.Time{last}
		}
	}
	s := TransformPath(g, ChainFree, ZeroWeight, extra)
	seeds := map[int]int64{}
	if ti >= 0 {
		lo, hi := s.vrange[ti][0], s.vrange[ti][1]
		for i := lo; i < hi; i++ {
			if s.replicas[i].T < deadline {
				seeds[int(i)] = 0
			}
		}
	}
	dist, via, m, err := s.minDist(seeds, true, workers)
	if err != nil {
		return nil, err
	}
	return &PathResult{Graph: g, Static: s, Metrics: m, dist: dist, via: via}, nil
}
