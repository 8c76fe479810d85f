package tgb

import (
	"sync"

	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// ClusteringResult is the outcome of a TGB triangle-count or LCC run over
// the snapshot-expanded transformed graph.
type ClusteringResult struct {
	Graph   *tgraph.Graph
	Static  *Static
	Metrics *engine.Metrics
	closure []int64 // per replica
}

// ClosuresAt returns vertex v's closure count at time t.
func (r *ClusteringResult) ClosuresAt(v int, t ival.Time) int64 {
	i := r.Static.Lookup(Replica{V: v, T: t})
	if i < 0 {
		return 0
	}
	return r.closure[i]
}

// DegAt returns vertex v's out-degree at time t in the transformed graph.
func (r *ClusteringResult) DegAt(v int, t ival.Time) int64 {
	i := r.Static.Lookup(Replica{V: v, T: t})
	if i < 0 {
		return 0
	}
	return int64(len(r.Static.adj[i]))
}

// clusterProgram runs the announce/forward/close protocol over the
// snapshot-expanded static graph: 3 supersteps for TC (close at the cycle's
// last vertex), 4 for LCC (reply to the wedge origin).
type clusterProgram struct {
	s       *Static
	lcc     bool
	mu      sync.Mutex
	closure []int64
}

func (p *clusterProgram) Init(ctx *engine.Context) {}

func (p *clusterProgram) Run(ctx *engine.Context, msgs []engine.Message) {
	i := ctx.Vertex()
	ctx.AddComputeCalls(1)
	switch ctx.Superstep() {
	case 1: // announce the temporal vertex id along all edges
		if len(p.s.adj[i]) == 0 {
			return
		}
		payload := []int64{int64(p.s.replicas[i].V)}
		for _, e := range p.s.adj[i] {
			ctx.Send(int(e.dst), ival.Universe, payload)
		}
	case 2: // forward collected origins
		var collect []int64
		for _, m := range msgs {
			collect = append(collect, ctx.Payload(m).([]int64)...)
		}
		if len(collect) == 0 || len(p.s.adj[i]) == 0 {
			return
		}
		for _, e := range p.s.adj[i] {
			ctx.Send(int(e.dst), ival.Universe, collect)
		}
	case 3:
		p.close(ctx, i, msgs)
	case 4: // LCC: accumulate replies
		var sum int64
		for _, m := range msgs {
			for _, x := range ctx.Payload(m).([]int64) {
				sum += x
			}
		}
		p.mu.Lock()
		p.closure[i] += sum
		p.mu.Unlock()
	}
}

func (p *clusterProgram) close(ctx *engine.Context, i int, msgs []engine.Message) {
	self := int64(p.s.replicas[i].V)
	myT := p.s.replicas[i].T
	// Index neighbors (with multi-edge multiplicity) once per replica.
	neigh := map[int64]int64{}
	edges := p.s.adj[i]
	if p.lcc {
		edges = p.s.radj[i]
	}
	for _, e := range edges {
		neigh[int64(p.s.replicas[e.dst].V)]++
	}
	var count int64
	for _, m := range msgs {
		for _, origin := range ctx.Payload(m).([]int64) {
			if origin == self {
				continue
			}
			k := neigh[origin]
			if k == 0 {
				continue
			}
			if p.lcc {
				// Closed wedge: this replica is a direct successor of the
				// origin; reply one count per in-edge instance.
				if oi := p.s.Lookup(Replica{V: int(origin), T: myT}); oi >= 0 {
					ctx.Send(oi, ival.Universe, []int64{k})
				}
				continue
			}
			// Directed cycle: an edge back to the origin closes it here.
			count += k
		}
	}
	if count > 0 {
		p.mu.Lock()
		p.closure[i] += count
		p.mu.Unlock()
	}
}

// runClustering executes the protocol over the snapshot-expanded transform.
func runClustering(g *tgraph.Graph, workers int, lcc bool) (*ClusteringResult, error) {
	s := TransformSnapshots(g)
	p := &clusterProgram{s: s, lcc: lcc, closure: make([]int64, s.NumReplicas())}
	max := 3
	if lcc {
		max = 4
	}
	eng, err := engine.New(s.NumReplicas(), p, engine.Config{NumWorkers: workers, MaxSupersteps: max})
	if err != nil {
		return nil, err
	}
	m, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return &ClusteringResult{Graph: g, Static: s, Metrics: m, closure: p.closure}, nil
}

// RunTC counts directed 3-cycles per replica on the transformed graph.
func RunTC(g *tgraph.Graph, workers int) (*ClusteringResult, error) {
	return runClustering(g, workers, false)
}

// RunLCC counts closed wedges per origin replica on the transformed graph.
func RunLCC(g *tgraph.Graph, workers int) (*ClusteringResult, error) {
	return runClustering(g, workers, true)
}
