package tgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	ival "graphite/internal/interval"
)

// Patch returns the next epoch of a graph that grows along its time axis:
// prev with vs and es merged in by id. An entry replaces prev's entity of its
// id or is inserted at its sorted position; one with an empty lifespan
// removes its id. Every other entity is copied from prev by value, sharing
// its property storage; prev is never written (vs and es may be). prev (nil:
// empty), vs and es are in ascending id order, as every graph Patch returns
// is. It checks what a patch can break — the entries, and the untouched
// edges of a vertex whose lifespan changed — with Builder's checks.
//
// When prev holds derived values the result gets a Lineage: those values,
// and per edge the index prev gave it (-1 for an entry of es).
func Patch(prev *Graph, vs []Vertex, es []Edge) (*Graph, error) {
	if prev == nil {
		prev = &Graph{}
	}
	n := len(prev.edges) + len(es)
	var lin *Lineage
	prev.derived.Range(func(key, v any) bool {
		if lin == nil {
			lin = &Lineage{derived: map[any]any{}, sources: make([]int32, 0, n)}
		}
		lin.derived[key] = v
		return true
	})
	// remap: old vertex index -> new (-1: removed); hit: lifespan changed.
	old, olde := prev.vertices, prev.edges
	vertices, edges := vs[:0], es[:0] // over an empty prev, the entries are the tables
	if len(old)+len(olde) > 0 {
		vertices, edges = make([]Vertex, 0, len(old)+len(vs)), make([]Edge, 0, len(olde)+len(es))
	}
	remap := make([]int32, len(old))
	var hit []int32
	i := 0
	copyTo := func(id VertexID, all bool) {
		for ; i < len(old) && (all || old[i].ID < id); i++ {
			remap[i] = int32(len(vertices))
			vertices = append(vertices, old[i])
		}
	}
	for k := range vs {
		v := &vs[k]
		if k > 0 && v.ID <= vs[k-1].ID {
			return nil, fmt.Errorf("%w: vertex %d repeated or out of order", ErrDuplicateVertex, v.ID)
		}
		if err := checkEntity("vertex", int64(v.ID), v.Lifespan, v.Props); err != nil {
			return nil, err
		}
		copyTo(v.ID, false)
		if i < len(old) && old[i].ID == v.ID {
			remap[i] = -1
			if old[i].Lifespan != v.Lifespan {
				hit = append(hit, int32(i))
			}
			if !v.Lifespan.IsEmpty() {
				remap[i] = int32(len(vertices))
			}
			i++
		}
		if !v.Lifespan.IsEmpty() {
			vertices = append(vertices, *v)
		}
	}
	copyTo(0, true)

	// Edges, the same merge; an untouched edge's endpoints go through remap.
	ends := make([]int32, 2*n)
	srcIdx, dstIdx := ends[:0:n], ends[n:n]
	index := func(id VertexID) int32 {
		k := sort.Search(len(vertices), func(k int) bool { return vertices[k].ID >= id })
		if k == len(vertices) || vertices[k].ID != id {
			return -1
		}
		return int32(k)
	}
	i = 0
	copyEdgesTo := func(id EdgeID, all bool) {
		for ; i < len(olde) && (all || olde[i].ID < id); i++ {
			edges = append(edges, olde[i])
			srcIdx, dstIdx = append(srcIdx, remap[prev.srcIdx[i]]), append(dstIdx, remap[prev.dstIdx[i]])
			if lin != nil {
				lin.sources = append(lin.sources, int32(i))
			}
		}
	}
	for k := range es {
		e := &es[k]
		if k > 0 && e.ID <= es[k-1].ID {
			return nil, fmt.Errorf("%w: edge %d repeated or out of order", ErrDuplicateEdge, e.ID)
		}
		if err := checkEntity("edge", int64(e.ID), e.Lifespan, e.Props); err != nil {
			return nil, err
		}
		copyEdgesTo(e.ID, false)
		if i < len(olde) && olde[i].ID == e.ID {
			i++
		}
		if e.Lifespan.IsEmpty() {
			continue
		}
		s, d := index(e.Src), index(e.Dst)
		if err := checkEdge(vertices, e, s, d); err != nil {
			return nil, err
		}
		edges, srcIdx, dstIdx = append(edges, *e), append(srcIdx, s), append(dstIdx, d)
		if lin != nil {
			lin.sources = append(lin.sources, -1)
		}
	}
	copyEdgesTo(0, true)

	// An untouched edge of a vertex whose lifespan changed must still fit it.
	for _, o := range hit {
		for _, oe := range slices.Concat(prev.out[o], prev.in[o]) {
			_, entry := slices.BinarySearchFunc(es, olde[oe].ID, func(x Edge, id EdgeID) int { return cmp.Compare(x.ID, id) })
			if err := checkEdge(vertices, &olde[oe], remap[prev.srcIdx[oe]], remap[prev.dstIdx[oe]]); !entry && err != nil {
				return nil, err
			}
		}
	}
	vsorted := make([]int32, len(vertices))
	for k := range vsorted {
		vsorted[k] = int32(k)
	}
	g := assemble(vertices, edges, srcIdx, dstIdx, nil, vsorted)
	g.lineage.Store(lin)
	return g, nil
}

// checkEntity checks a patch entry as Builder checks an entity — a valid
// lifespan holding every property value (Constraint 3), none overlapping
// (Definition 1) — and sorts each label's entries. A removal has no checks.
func checkEntity(kind string, id int64, life ival.Interval, p Props) error {
	if life.IsEmpty() {
		return nil
	}
	if !life.Valid() {
		return fmt.Errorf("%w: %s %d has %v", ErrInvalidLifespan, kind, id, life)
	}
	for label, entries := range p.All() {
		for _, e := range entries {
			if err := propFits(kind, id, life, label, e.Interval); err != nil {
				return err
			}
		}
	}
	if err := normalizeProps(p); err != nil {
		return fmt.Errorf("%w: %s %d %s", ErrPropConflict, kind, id, err)
	}
	return nil
}

// checkEdge checks an edge against the endpoints at dense indices s and d of
// vertices, -1 for one that does not exist (Constraint 2).
func checkEdge(vertices []Vertex, e *Edge, s, d int32) error {
	if s < 0 || d < 0 {
		return fmt.Errorf("%w: edge %d (%d->%d)", ErrDanglingEdge, e.ID, e.Src, e.Dst)
	}
	return edgeFits(e.ID, e.Lifespan, vertices[s].Lifespan, vertices[d].Lifespan)
}
