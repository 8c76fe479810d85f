package tgraph

import (
	ival "graphite/internal/interval"
)

// Characteristics summarizes a temporal graph the way Table 1 of the paper
// does: sizes under each of the four representations the evaluated platforms
// use, plus average entity lifespans.
type Characteristics struct {
	Snapshots int // number of distinct time-points

	// Interval representation (GRAPHITE/ICM).
	IntervalV int
	IntervalE int

	// Largest single snapshot (MSB, Chlonos batches, GoFFish).
	LargestSnapV int
	LargestSnapE int

	// Transformed graph (TGB): vertex replicas at distinct incident
	// time-points, plus replica-chain edges and per-time-point edge copies.
	TransformedV int
	TransformedE int

	// Multi-snapshot cumulative sizes (sum over all snapshots).
	MultiSnapV int64
	MultiSnapE int64

	// Average lifespans, in time-points, clipped to the observable window.
	AvgVertexLife float64
	AvgEdgeLife   float64
	AvgPropLife   float64
}

// ComputeCharacteristics scans the graph once per entity class and derives
// the Table 1 rows. Per-snapshot counts use an event sweep, not per-snapshot
// rescans, so it is O((V+E) log(V+E) + horizon).
func (g *Graph) ComputeCharacteristics() Characteristics {
	var c Characteristics
	start, horizon := g.lifespan.Start, g.Horizon()
	n := int(horizon - start)
	if n <= 0 {
		return c
	}
	c.Snapshots = n
	c.IntervalV = len(g.vertices)
	c.IntervalE = len(g.edges)

	vDiff := make([]int32, n+1)
	eDiff := make([]int32, n+1)
	var vLife, eLife, propLife, propCount int64

	for i := range g.vertices {
		iv := g.clip(g.vertices[i].Lifespan)
		if iv.IsEmpty() {
			continue
		}
		vLife += iv.Length()
		vDiff[iv.Start-start]++
		vDiff[iv.End-start]--
		for _, es := range g.vertices[i].Props.All() {
			for _, e := range es {
				p := g.clip(e.Interval)
				propLife += p.Length()
				propCount++
			}
		}
	}
	for i := range g.edges {
		iv := g.clip(g.edges[i].Lifespan)
		if iv.IsEmpty() {
			continue
		}
		eLife += iv.Length()
		eDiff[iv.Start-start]++
		eDiff[iv.End-start]--
		for _, es := range g.edges[i].Props.All() {
			for _, e := range es {
				p := g.clip(e.Interval)
				propLife += p.Length()
				propCount++
			}
		}
	}

	var av, ae int32
	for t := 0; t < n; t++ {
		av += vDiff[t]
		ae += eDiff[t]
		if int(av) > c.LargestSnapV {
			c.LargestSnapV = int(av)
		}
		if int(ae) > c.LargestSnapE {
			c.LargestSnapE = int(ae)
		}
		c.MultiSnapV += int64(av)
		c.MultiSnapE += int64(ae)
	}

	tv, te := g.TransformedSize()
	c.TransformedV = tv
	c.TransformedE = te

	if len(g.vertices) > 0 {
		c.AvgVertexLife = float64(vLife) / float64(len(g.vertices))
	}
	if len(g.edges) > 0 {
		c.AvgEdgeLife = float64(eLife) / float64(len(g.edges))
	}
	if propCount > 0 {
		c.AvgPropLife = float64(propLife) / float64(propCount)
	}
	return c
}

// TransformedSize estimates the size of the algorithm-agnostic transformed
// graph (Sec. I, Fig. 1(b); Wu et al. [6]): each vertex is unrolled into one
// replica per distinct time-point at which an in- or out-edge is incident,
// replicas of a vertex are chained by edges in time order, and every edge
// becomes one copy per time-point of its lifespan connecting the matching
// replicas.
func (g *Graph) TransformedSize() (nv, ne int) {
	horizon := g.Horizon()
	for vi := range g.vertices {
		points := map[ival.Time]struct{}{}
		for _, ei := range g.out[vi] {
			iv := g.clip(g.edges[ei].Lifespan)
			for t := iv.Start; t < iv.End && t < horizon; t++ {
				points[t] = struct{}{}
			}
		}
		for _, ei := range g.in[vi] {
			e := &g.edges[ei]
			iv := g.clip(e.Lifespan)
			for t := iv.Start; t < iv.End && t < horizon; t++ {
				// Arrival replica: one time unit after departure,
				// bounded by the horizon.
				at := ival.SatAdd(t, 1)
				if at >= horizon {
					at = horizon - 1
				}
				points[at] = struct{}{}
			}
		}
		k := len(points)
		nv += k
		if k > 1 {
			ne += k - 1 // replica chain
		}
	}
	for ei := range g.edges {
		iv := g.clip(g.edges[ei].Lifespan)
		ne += int(iv.Length())
	}
	return nv, ne
}

// WorkWeights returns a per-vertex compute-work estimate for skew-aware
// partitioning: Σ over the vertex's out-edges of the edge lifespan length
// (degree × lifespan), clipped to the observable window. A hub vertex whose
// edges live for the whole horizon scatters proportionally more interval
// messages per superstep than a leaf with short-lived edges, so these
// weights feed engine.PartitionBalanced.
func (g *Graph) WorkWeights() []int64 {
	ws := make([]int64, len(g.vertices))
	for vi := range g.vertices {
		var w int64
		for _, ei := range g.out[vi] {
			iv := g.clip(g.edges[ei].Lifespan)
			if !iv.IsEmpty() {
				w += int64(iv.Length())
			}
		}
		ws[vi] = w
	}
	return ws
}

// MemoryFootprint returns an estimate, in bytes, of the in-memory size of
// the interval graph representation: used for the Fig. 6(a) comparison.
// The accounting is representation-intrinsic (ids, interval endpoints,
// adjacency indices, property entries), not Go-runtime-specific.
func (g *Graph) MemoryFootprint() int64 {
	const (
		idBytes   = 8
		timeBytes = 8
		idxBytes  = 4
	)
	var b int64
	for i := range g.vertices {
		b += idBytes + 2*timeBytes
		for _, es := range g.vertices[i].Props.All() {
			b += int64(len(es)) * (2*timeBytes + 8)
		}
	}
	for i := range g.edges {
		b += idBytes + 2*idBytes + 2*timeBytes + 2*idxBytes // edge + out/in adjacency slots
		for _, es := range g.edges[i].Props.All() {
			b += int64(len(es)) * (2*timeBytes + 8)
		}
	}
	return b
}

// SnapshotFootprint returns the byte estimate of materializing the single
// snapshot at time t (vertex ids + active edges + scalar property values).
func (g *Graph) SnapshotFootprint(t ival.Time) int64 {
	const (
		idBytes  = 8
		idxBytes = 4
	)
	var b int64
	for i := range g.vertices {
		if g.vertices[i].Lifespan.Contains(t) {
			b += idBytes
			for range g.vertices[i].Props.All() {
				b += 8
			}
		}
	}
	for i := range g.edges {
		if g.edges[i].Lifespan.Contains(t) {
			b += idBytes + 2*idBytes + 2*idxBytes
			for range g.edges[i].Props.All() {
				b += 8
			}
		}
	}
	return b
}

// LargestSnapshotFootprint returns the maximum SnapshotFootprint over the
// observable window.
func (g *Graph) LargestSnapshotFootprint() int64 {
	var max int64
	for t := g.lifespan.Start; t < g.Horizon(); t++ {
		if f := g.SnapshotFootprint(t); f > max {
			max = f
		}
	}
	return max
}
