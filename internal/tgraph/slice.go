package tgraph

import (
	ival "graphite/internal/interval"
)

// Slice returns the sub-graph restricted to a time window: vertex, edge and
// property lifespans are clipped to the window and entities that do not exist
// inside it are dropped. The result is a valid temporal graph in its own
// right, and nothing here re-checks that: the constraints are closed under
// intersection with a fixed window (containment survives it, and so do
// uniqueness, the order of a label's entries and their disjointness), so g
// having passed the Builder once is enough. Offering window queries over
// temporal property graphs is part of the paper's stated future work.
//
// It is a direct clip, not a second ingest: one sweep counts what survives,
// one fills exactly-sized tables, and the shared assembler adds adjacency. A
// property set the window leaves whole is shared with g; the others are
// copied, clipped, into one slab. Nothing in the result points at storage a
// mapped g loses on Close. A window that contains g's whole lifespan clips
// nothing, and g itself is returned. The error is always nil.
func Slice(g *Graph, window ival.Interval) (*Graph, error) {
	if window.ContainsInterval(g.lifespan) {
		return g, nil
	}

	// Counting sweep. remap is old vertex index -> new, -1 for dropped.
	remap := make([]int32, len(g.vertices))
	var nv, ne int
	var slab propSlab
	for i := range g.vertices {
		v := &g.vertices[i]
		if !v.Lifespan.Intersects(window) {
			remap[i] = -1
			continue
		}
		remap[i] = int32(nv)
		nv++
		slab.count(v.Props, v.Lifespan, window)
	}
	for i := range g.edges {
		if e := &g.edges[i]; e.Lifespan.Intersects(window) {
			ne++
			slab.count(e.Props, e.Lifespan, window)
		}
	}
	slab.alloc()

	// Filling sweep. An edge alive in the window has both endpoints alive in
	// it (Constraint 2), so remap never yields -1 for a kept edge.
	vertices := make([]Vertex, 0, nv)
	for i := range g.vertices {
		if v := &g.vertices[i]; remap[i] >= 0 {
			vertices = append(vertices, Vertex{ID: v.ID, Lifespan: v.Lifespan.Intersect(window),
				Props: slab.clip(v.Props, v.Lifespan, window)})
		}
	}
	edges := make([]Edge, 0, ne)
	ends := make([]int32, 2*ne)
	srcIdx, dstIdx := ends[:0:ne], ends[ne:ne]
	for i := range g.edges {
		e := &g.edges[i]
		if life := e.Lifespan.Intersect(window); !life.IsEmpty() {
			edges = append(edges, Edge{ID: e.ID, Src: e.Src, Dst: e.Dst, Lifespan: life,
				Props: slab.clip(e.Props, e.Lifespan, window)})
			srcIdx = append(srcIdx, remap[g.srcIdx[i]])
			dstIdx = append(dstIdx, remap[g.dstIdx[i]])
		}
	}
	vsorted := make([]int32, 0, nv)
	for _, vi := range g.vsorted {
		if remap[vi] >= 0 {
			vsorted = append(vsorted, remap[vi])
		}
	}
	return assemble(vertices, edges, srcIdx, dstIdx, nil, vsorted), nil
}

// propSlab holds the clipped copies of every property set a window cuts into:
// all their entries in one array, all their label and per-label headers in
// two more, sized exactly by a counting pass.
type propSlab struct {
	nentries, nruns int
	entries         []PropEntry
	labels          []string
	runs            [][]PropEntry
}

// clipShape reports whether the window leaves the property set of an owner
// with the given lifespan whole — every entry survives unchanged — and
// otherwise how many labels and entries survive.
func clipShape(p Props, life, window ival.Interval) (runs, entries int, whole bool) {
	if p.Len() == 0 || window.ContainsInterval(life) {
		return 0, 0, true // Constraint 3: entries lie inside the owner's lifespan
	}
	whole = true
	for _, es := range p.entries {
		kept := 0
		for _, e := range es {
			x := e.Interval.Intersect(window)
			if !x.IsEmpty() {
				kept++
			}
			whole = whole && x == e.Interval
		}
		if kept > 0 {
			runs++
			entries += kept
		}
	}
	return runs, entries, whole
}

// count reserves room for p's clipped copy unless p will be shared.
func (s *propSlab) count(p Props, life, window ival.Interval) {
	if runs, entries, whole := clipShape(p, life, window); !whole {
		s.nruns += runs
		s.nentries += entries
	}
}

func (s *propSlab) alloc() {
	s.entries = make([]PropEntry, 0, s.nentries)
	s.labels = make([]string, 0, s.nruns)
	s.runs = make([][]PropEntry, 0, s.nruns)
}

// clip returns p restricted to the window: p itself when nothing changes,
// otherwise a copy carved out of the slab.
func (s *propSlab) clip(p Props, life, window ival.Interval) Props {
	if _, _, whole := clipShape(p, life, window); whole {
		return p
	}
	lo := len(s.runs)
	for li, es := range p.entries {
		off := len(s.entries)
		for _, e := range es {
			if x := e.Interval.Intersect(window); !x.IsEmpty() {
				s.entries = append(s.entries, PropEntry{Interval: x, Value: e.Value})
			}
		}
		if end := len(s.entries); end > off {
			s.labels = append(s.labels, p.labels[li])
			s.runs = append(s.runs, s.entries[off:end:end])
		}
	}
	hi := len(s.runs)
	if hi == lo {
		return Props{}
	}
	return Props{labels: s.labels[lo:hi:hi], entries: s.runs[lo:hi:hi]}
}

// History reports the lifespan, per-label property timeline and temporal
// degree profile of one vertex — the "vertex history" query of a temporal
// property graph store.
type History struct {
	ID       VertexID
	Lifespan ival.Interval
	Props    Props
	// OutDegree and InDegree are partitioned by the intervals over which
	// the degree is constant.
	OutDegree []DegreePoint
	InDegree  []DegreePoint
}

// DegreePoint is one constant-degree interval.
type DegreePoint struct {
	Interval ival.Interval
	Degree   int
}

// VertexHistory extracts the history of the vertex with the given id, or
// nil if absent.
func (g *Graph) VertexHistory(id VertexID) *History {
	vi := g.IndexOf(id)
	if vi < 0 {
		return nil
	}
	v := g.VertexAt(vi)
	return &History{
		ID:        v.ID,
		Lifespan:  v.Lifespan,
		Props:     v.Props,
		OutDegree: degreeProfile(g, v.Lifespan, g.OutEdges(vi)),
		InDegree:  degreeProfile(g, v.Lifespan, g.InEdges(vi)),
	}
}

// degreeProfile partitions the lifespan at edge boundaries and annotates
// each piece with the number of alive edges.
func degreeProfile(g *Graph, life ival.Interval, edges []int32) []DegreePoint {
	bounds := []ival.Time{life.Start, life.End}
	for _, ei := range edges {
		x := g.edges[ei].Lifespan.Intersect(life)
		if !x.IsEmpty() {
			bounds = append(bounds, x.Start, x.End)
		}
	}
	// Insertion sort: boundary lists are short.
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	var out []DegreePoint
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i] == bounds[i+1] {
			continue
		}
		piece := ival.New(bounds[i], bounds[i+1])
		deg := 0
		for _, ei := range edges {
			if g.edges[ei].Lifespan.Contains(piece.Start) {
				deg++
			}
		}
		if n := len(out); n > 0 && out[n-1].Degree == deg && out[n-1].Interval.Meets(piece) {
			out[n-1].Interval.End = piece.End
			continue
		}
		out = append(out, DegreePoint{Interval: piece, Degree: deg})
	}
	return out
}
