package goffish

import (
	"sync"
	"time"

	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// ClusteringResult holds the per-snapshot clustering outputs of the GoFFish
// TC and LCC runs (no temporal sharing exists for them, so the platform
// degenerates to per-snapshot processing, as the paper notes for MSB-like
// behaviour).
type ClusteringResult struct {
	Graph   *tgraph.Graph
	Metrics obs.RunEnd
	// Closures[t][v] is vertex v's closure count in snapshot t.
	Closures map[ival.Time][]int64
	// Degs[t][v] is vertex v's out-degree in snapshot t (LCC only).
	Degs map[ival.Time][]int64
}

// RunTC counts directed 3-cycle closures per vertex per snapshot with the
// same announce/forward/close message protocol the ICM version uses, run
// independently for every snapshot.
func RunTC(g *tgraph.Graph, workers int) (*ClusteringResult, error) {
	return runClustering(g, workers, false)
}

// RunLCC counts closed wedges and degrees per vertex per snapshot.
func RunLCC(g *tgraph.Graph, workers int) (*ClusteringResult, error) {
	return runClustering(g, workers, true)
}

func runClustering(g *tgraph.Graph, workers int, lcc bool) (*ClusteringResult, error) {
	start := time.Now()
	if workers <= 0 {
		workers = 4
	}
	n := g.NumVertices()
	res := &ClusteringResult{
		Graph:    g,
		Closures: map[ival.Time][]int64{},
		Degs:     map[ival.Time][]int64{},
	}
	for t := g.Lifespan().Start; t < g.Horizon(); t++ {
		res.Metrics.Supersteps += 3
		t0 := time.Now()
		snap := g.SnapshotAt(t)
		// Materialize the snapshot adjacency and per-vertex neighbor
		// multiplicities once.
		adj := make([][]int32, n)
		outCount := make([]map[int32]int64, n)
		for u := 0; u < n; u++ {
			if !snap.VertexActive(u) {
				continue
			}
			snap.OutEdgesIdx(u, func(_ *tgraph.Edge, dst int) {
				adj[u] = append(adj[u], int32(dst))
				if outCount[u] == nil {
					outCount[u] = map[int32]int64{}
				}
				outCount[u][int32(dst)]++
			})
		}
		closures := make([]int64, n)
		degs := make([]int64, n)
		var mu sync.Mutex
		var calls, messages, bytes int64
		parallelFor(n, workers, func(u int) {
			if !snap.VertexActive(u) {
				return
			}
			var localMsgs, localBytes int64
			var localClosures []struct {
				v int
				k int64
			}
			// Walk the two-hop protocol for this origin: u → a (announce),
			// a → b (forward), close at b.
			for _, a := range adj[u] {
				if int(a) == u {
					continue
				}
				localMsgs++ // announce message u→a
				localBytes += 16
				for _, b := range adj[a] {
					if int(b) == u {
						continue
					}
					localMsgs++ // forward message a→b
					localBytes += 16
					if lcc {
						// Closed wedge: u→b must exist; one reply per
						// u→b instance.
						if k := outCount[u][b]; k > 0 {
							localMsgs += k // replies b→u
							localBytes += 16 * k
							localClosures = append(localClosures, struct {
								v int
								k int64
							}{u, k})
						}
						continue
					}
					// Directed cycle closure: b→u must exist; count at b.
					if k := outCount[b][int32(u)]; k > 0 {
						localClosures = append(localClosures, struct {
							v int
							k int64
						}{int(b), k})
					}
				}
			}
			mu.Lock()
			calls += 3 // announce, forward and close steps
			messages += localMsgs
			bytes += localBytes
			for _, c := range localClosures {
				closures[c.v] += c.k
			}
			if lcc {
				degs[u] = int64(len(adj[u]))
			}
			mu.Unlock()
		})
		res.Closures[t] = closures
		res.Degs[t] = degs
		res.Metrics.ComputeCalls += calls
		res.Metrics.Messages += messages
		res.Metrics.MessageBytes += bytes
		res.Metrics.ComputeNS += int64(time.Since(t0))
	}
	res.Metrics.MakespanNS = int64(time.Since(start))
	return res, nil
}
