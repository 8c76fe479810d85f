package tgraph

import (
	ival "graphite/internal/interval"
)

// Snapshot is a read-only view of the graph at a single time-point, i.e. the
// static graph S_t that the multi-snapshot baselines operate on.
type Snapshot struct {
	G *Graph
	T ival.Time
}

// SnapshotAt returns the snapshot view of the graph at time-point t.
func (g *Graph) SnapshotAt(t ival.Time) Snapshot { return Snapshot{G: g, T: t} }

// VertexActive reports whether vertex index v exists at the snapshot's time.
func (s Snapshot) VertexActive(v int) bool {
	return s.G.vertices[v].Lifespan.Contains(s.T)
}

// EdgeActive reports whether edge index e exists at the snapshot's time.
func (s Snapshot) EdgeActive(e int) bool {
	return s.G.edges[e].Lifespan.Contains(s.T)
}

// NumActive returns the number of active vertices and edges in the snapshot.
func (s Snapshot) NumActive() (nv, ne int) {
	for i := range s.G.vertices {
		if s.VertexActive(i) {
			nv++
		}
	}
	for i := range s.G.edges {
		if s.EdgeActive(i) {
			ne++
		}
	}
	return nv, ne
}

// OutEdges calls fn for each active out-edge of vertex index v.
func (s Snapshot) OutEdges(v int, fn func(e *Edge)) {
	for _, ei := range s.G.out[v] {
		if e := &s.G.edges[ei]; e.Lifespan.Contains(s.T) {
			fn(e)
		}
	}
}

// OutEdgesIdx calls fn(edge, dense destination index) for each active
// out-edge of vertex index v, avoiding id lookups on hot paths.
func (s Snapshot) OutEdgesIdx(v int, fn func(e *Edge, dst int)) {
	for _, ei := range s.G.out[v] {
		if e := &s.G.edges[ei]; e.Lifespan.Contains(s.T) {
			fn(e, int(s.G.dstIdx[ei]))
		}
	}
}

// InEdges calls fn for each active in-edge of vertex index v.
func (s Snapshot) InEdges(v int, fn func(e *Edge)) {
	for _, ei := range s.G.in[v] {
		if e := &s.G.edges[ei]; e.Lifespan.Contains(s.T) {
			fn(e)
		}
	}
}

// InEdgesIdx calls fn(edge, dense source index) for each active in-edge of
// vertex index v.
func (s Snapshot) InEdgesIdx(v int, fn func(e *Edge, src int)) {
	for _, ei := range s.G.in[v] {
		if e := &s.G.edges[ei]; e.Lifespan.Contains(s.T) {
			fn(e, int(s.G.srcIdx[ei]))
		}
	}
}

// SnapshotCount returns the number of distinct snapshots of the graph: the
// length of the graph lifespan, with unbounded lifespans measured up to the
// largest finite boundary (an interval graph whose entities all extend to ∞
// still has a finite number of *distinct* snapshots).
func (g *Graph) SnapshotCount() int {
	h := g.Horizon()
	if h <= g.lifespan.Start {
		return 0
	}
	return int(h - g.lifespan.Start)
}

// Horizon returns the exclusive upper bound of "interesting" time: the
// largest finite interval boundary over all vertices, edges and properties,
// or lifespan.End when everything is bounded. Snapshots at or beyond the
// horizon are identical to the one just before it. The value is computed on
// the first call (a scan of every boundary, which most graphs — a live epoch
// among them — are never asked for), unless the graph was given it: a
// snapshot file stores it, a partition inherits its source's.
func (g *Graph) Horizon() ival.Time {
	g.horizonOnce.Do(func() { g.horizon = g.computeHorizon(ival.Universe) })
	return g.horizon
}

// setHorizon gives a graph under construction its horizon instead of the
// scan.
func (g *Graph) setHorizon(h ival.Time) { g.horizonOnce.Do(func() { g.horizon = h }) }

// HorizonIn returns the horizon Slice(g, window) would have, without building
// the slice: the same scan over every boundary clipped to the window, entities
// and property values that do not exist inside it skipped. A window that
// contains g's whole lifespan clips nothing and has g's own horizon.
func (g *Graph) HorizonIn(window ival.Interval) ival.Time {
	if window.ContainsInterval(g.lifespan) {
		return g.Horizon()
	}
	return g.computeHorizon(window)
}

// computeHorizon scans all entity and property boundaries inside the window.
func (g *Graph) computeHorizon(window ival.Interval) ival.Time {
	var h ival.Time
	bump := func(iv ival.Interval) {
		if iv = iv.Intersect(window); iv.IsEmpty() {
			return
		}
		if iv.Start > h {
			h = iv.Start
		}
		if iv.End != ival.Infinity && iv.End > h {
			h = iv.End
		}
	}
	var life ival.Interval // hull of the vertex lifespans inside the window
	for i := range g.vertices {
		bump(g.vertices[i].Lifespan)
		life = life.Union(g.vertices[i].Lifespan.Intersect(window))
		for _, es := range g.vertices[i].Props.All() {
			for _, e := range es {
				bump(e.Interval)
			}
		}
	}
	for i := range g.edges {
		bump(g.edges[i].Lifespan)
		for _, es := range g.edges[i].Props.All() {
			for _, e := range es {
				bump(e.Interval)
			}
		}
	}
	if h == life.Start { // degenerate: everything unbounded from start
		h = life.Start + 1
	}
	return h
}

// clip bounds an interval to the graph's observable window [start, horizon)
// for per-snapshot accounting.
func (g *Graph) clip(iv ival.Interval) ival.Interval {
	return iv.Intersect(ival.New(g.lifespan.Start, g.Horizon()))
}
