// Package tgb implements the Transformed Graph Baseline of Sec. VII-A3
// (Wu et al. [6]): the interval graph is unrolled into an algorithm-specific
// static graph whose vertices are (vertex, time-point) replicas, and a plain
// vertex-centric algorithm runs over it. Replica chains carry shared state
// between the replicas of one temporal vertex — the "special messages" whose
// overhead the paper calls out — and the representation's size blow-up is
// what Fig. 6(a) measures.
package tgb

import (
	"fmt"

	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// Replica identifies one transformed-graph node: a temporal vertex at a
// time-point.
type Replica struct {
	V int       // dense index of the temporal vertex
	T ival.Time // time-point of the replica
}

// sedge is a weighted static edge.
type sedge struct {
	dst   int32
	w     int64
	chain bool // replica-chain edge (state transfer), not a graph edge
}

// Static is the transformed graph: a weighted static digraph over replicas.
type Static struct {
	replicas []Replica
	index    map[Replica]int32
	vrange   [][2]int32 // per temporal vertex: [lo, hi) replica index range
	adj      [][]sedge
	radj     [][]sedge
	chainE   int
	travelE  int
}

// NumReplicas returns the transformed vertex count.
func (s *Static) NumReplicas() int { return len(s.replicas) }

// NumEdges returns total static edge count (travel + chain).
func (s *Static) NumEdges() int { return s.chainE + s.travelE }

// Replica returns the replica at dense index i.
func (s *Static) Replica(i int) Replica { return s.replicas[i] }

// Lookup returns the dense index of a replica, or -1.
func (s *Static) Lookup(r Replica) int {
	i, ok := s.index[r]
	if !ok {
		return -1
	}
	return int(i)
}

// MemoryFootprint estimates the in-memory bytes of the transformed graph
// (replica nodes + static edges), for the Fig. 6(a) comparison.
func (s *Static) MemoryFootprint() int64 {
	const nodeBytes = 8 + 8 // vertex ref + time-point
	const edgeBytes = 4 + 8 // dst index + weight
	return int64(len(s.replicas))*nodeBytes + int64(s.NumEdges())*edgeBytes
}

// String summarizes the transformed graph.
func (s *Static) String() string {
	return fmt.Sprintf("tgb{replicas=%d travel=%d chain=%d}", len(s.replicas), s.travelE, s.chainE)
}

// minDistProgram is the plain VCM shortest-path program the TGB algorithms
// reduce to: relax out-edges from seeds, carrying (dist, origin) pairs.
type minDistProgram struct {
	s     *Static
	seeds map[int]int64 // replica index -> initial distance
	dist  []int64
	via   []int64 // graph vertex id of the hop that first set the distance
}

const unreachable = int64(1) << 62

func (p *minDistProgram) Init(ctx *engine.Context) {}

func (p *minDistProgram) Run(ctx *engine.Context, msgs []engine.Message) {
	i := ctx.Vertex()
	ctx.AddComputeCalls(1)
	best := p.dist[i]
	bestVia := p.via[i]
	if ctx.Superstep() == 1 {
		if d, ok := p.seeds[i]; ok && d < best {
			best, bestVia = d, -1
		}
	}
	for _, m := range msgs {
		if pair := m.Word().Pair(); pair.A < best {
			best, bestVia = pair.A, pair.B
		}
	}
	if best < p.dist[i] {
		p.dist[i] = best
		p.via[i] = bestVia
		for _, e := range p.s.adj[i] {
			via := bestVia
			if !e.chain {
				// Crossing a travel edge: the hop's origin becomes this
				// replica's temporal vertex.
				via = int64(p.s.replicas[i].V)
			}
			ctx.SendWord(int(e.dst), ival.Universe, codec.PairWord(best+e.w, via), nil)
		}
	}
}

// minDist runs the shortest-path program over the static graph (reversed
// when reverse is set) and returns per-replica distances and via-vertices.
func (s *Static) minDist(seeds map[int]int64, reverse bool, workers int) ([]int64, []int64, *obs.RunEnd, error) {
	if s.NumReplicas() == 0 {
		return nil, nil, &obs.RunEnd{}, nil
	}
	p := &minDistProgram{s: s, seeds: seeds}
	if reverse {
		rs := &Static{replicas: s.replicas, index: s.index, vrange: s.vrange,
			adj: s.radj, radj: s.adj, chainE: s.chainE, travelE: s.travelE}
		p.s = rs
	}
	p.dist = make([]int64, s.NumReplicas())
	p.via = make([]int64, s.NumReplicas())
	for i := range p.dist {
		p.dist[i] = unreachable
		p.via[i] = -1
	}
	eng, err := engine.New(s.NumReplicas(), p, engine.Config{
		NumWorkers: workers,
		Combiner: func(a, b codec.Word) codec.Word {
			if int64(a.A) <= int64(b.A) {
				return a
			}
			return b
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := eng.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	return p.dist, p.via, m, nil
}
