package tgraph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	ival "graphite/internal/interval"
)

// Validation errors returned by Builder.Build, wrapping the paper's
// soundness constraints.
var (
	ErrDuplicateVertex  = errors.New("tgraph: duplicate vertex id (Constraint 1)")
	ErrDuplicateEdge    = errors.New("tgraph: duplicate edge id (Constraint 1)")
	ErrDanglingEdge     = errors.New("tgraph: edge endpoint does not exist (Constraint 2)")
	ErrEdgeOutlives     = errors.New("tgraph: edge lifespan not contained in endpoint lifespans (Constraint 2)")
	ErrPropOutlives     = errors.New("tgraph: property interval not contained in owner lifespan (Constraint 3)")
	ErrPropConflict     = errors.New("tgraph: overlapping values for one property label (Definition 1)")
	ErrInvalidLifespan  = errors.New("tgraph: invalid lifespan")
	ErrUnknownPropOwner = errors.New("tgraph: property for unknown vertex or edge")
)

// Builder accumulates vertices, edges and properties and validates the
// temporal graph constraints in Build. The zero value is not usable; call
// NewBuilder.
type Builder struct {
	vertices []Vertex
	edges    []Edge
	srcIdx   []int32 // edge index -> dense source vertex index
	dstIdx   []int32 // edge index -> dense destination vertex index
	vseen    map[VertexID]int32
	eseen    map[EdgeID]int32
	err      error
}

// NewBuilder returns an empty Builder with capacity hints.
func NewBuilder(vcap, ecap int) *Builder {
	return &Builder{
		vertices: make([]Vertex, 0, vcap),
		edges:    make([]Edge, 0, ecap),
		srcIdx:   make([]int32, 0, ecap),
		dstIdx:   make([]int32, 0, ecap),
		vseen:    make(map[VertexID]int32, vcap),
		eseen:    make(map[EdgeID]int32, ecap),
	}
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// AddVertex adds vertex 〈id, lifespan〉. The first error encountered is
// retained and returned by Build.
func (b *Builder) AddVertex(id VertexID, lifespan ival.Interval) *Builder {
	if !lifespan.Valid() {
		b.fail(fmt.Errorf("%w: vertex %d has %v", ErrInvalidLifespan, id, lifespan))
		return b
	}
	if _, dup := b.vseen[id]; dup {
		b.fail(fmt.Errorf("%w: vertex %d", ErrDuplicateVertex, id))
		return b
	}
	b.vseen[id] = int32(len(b.vertices))
	b.vertices = append(b.vertices, Vertex{ID: id, Lifespan: lifespan})
	return b
}

// AddEdge adds edge 〈id, src, dst, lifespan〉. Endpoints must already exist.
func (b *Builder) AddEdge(id EdgeID, src, dst VertexID, lifespan ival.Interval) *Builder {
	if !lifespan.Valid() {
		b.fail(fmt.Errorf("%w: edge %d has %v", ErrInvalidLifespan, id, lifespan))
		return b
	}
	if _, dup := b.eseen[id]; dup {
		b.fail(fmt.Errorf("%w: edge %d", ErrDuplicateEdge, id))
		return b
	}
	si, sok := b.vseen[src]
	di, dok := b.vseen[dst]
	if !sok || !dok {
		b.fail(fmt.Errorf("%w: edge %d (%d->%d)", ErrDanglingEdge, id, src, dst))
		return b
	}
	if err := edgeFits(id, lifespan, b.vertices[si].Lifespan, b.vertices[di].Lifespan); err != nil {
		b.fail(err)
		return b
	}
	b.eseen[id] = int32(len(b.edges))
	b.edges = append(b.edges, Edge{ID: id, Src: src, Dst: dst, Lifespan: lifespan})
	b.srcIdx = append(b.srcIdx, si)
	b.dstIdx = append(b.dstIdx, di)
	return b
}

// vertexOwner returns the vertex a property is for, recording
// ErrUnknownPropOwner if there is none.
func (b *Builder) vertexOwner(id VertexID) *Vertex {
	vi, ok := b.vseen[id]
	if !ok {
		b.fail(fmt.Errorf("%w: vertex %d", ErrUnknownPropOwner, id))
		return nil
	}
	return &b.vertices[vi]
}

func (b *Builder) edgeOwner(id EdgeID) *Edge {
	ei, ok := b.eseen[id]
	if !ok {
		b.fail(fmt.Errorf("%w: edge %d", ErrUnknownPropOwner, id))
		return nil
	}
	return &b.edges[ei]
}

// fits reports whether a property interval fits its owner, recording
// propFits' error if not.
func (b *Builder) fits(kind string, id int64, life ival.Interval, label string, interval ival.Interval) bool {
	err := propFits(kind, id, life, label, interval)
	b.fail(err)
	return err == nil
}

// propFits checks that a property interval is a non-empty part of its
// owner's lifespan (Constraint 3).
func propFits(kind string, id int64, life ival.Interval, label string, interval ival.Interval) error {
	if life.ContainsInterval(interval) && !interval.IsEmpty() {
		return nil
	}
	return fmt.Errorf("%w: %s %d prop %q %v outside %v", ErrPropOutlives, kind, id, label, interval, life)
}

// edgeFits checks an edge's lifespan against its endpoints' (Constraint 2).
func edgeFits(id EdgeID, life, src, dst ival.Interval) error {
	if src.ContainsInterval(life) && dst.ContainsInterval(life) {
		return nil
	}
	return fmt.Errorf("%w: edge %d %v, src %v, dst %v", ErrEdgeOutlives, id, life, src, dst)
}

// SetVertexProp attaches 〈vid, label, value, interval〉 to a vertex.
func (b *Builder) SetVertexProp(id VertexID, label string, interval ival.Interval, value int64) *Builder {
	if v := b.vertexOwner(id); v != nil && b.fits("vertex", int64(id), v.Lifespan, label, interval) {
		v.Props.AddAll(label, []PropEntry{{Interval: interval, Value: value}})
	}
	return b
}

// SetEdgeProp attaches 〈eid, label, value, interval〉 to an edge.
func (b *Builder) SetEdgeProp(id EdgeID, label string, interval ival.Interval, value int64) *Builder {
	if e := b.edgeOwner(id); e != nil && b.fits("edge", int64(id), e.Lifespan, label, interval) {
		e.Props.AddAll(label, []PropEntry{{Interval: interval, Value: value}})
	}
	return b
}

// Err returns the first error recorded so far, without building.
func (b *Builder) Err() error { return b.err }

// Build validates all constraints and returns the immutable graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.vertices {
		if err := normalizeProps(b.vertices[i].Props); err != nil {
			return nil, fmt.Errorf("%w: vertex %d %s", ErrPropConflict, b.vertices[i].ID, err)
		}
	}
	for i := range b.edges {
		if err := normalizeProps(b.edges[i].Props); err != nil {
			return nil, fmt.Errorf("%w: edge %d %s", ErrPropConflict, b.edges[i].ID, err)
		}
	}
	return assemble(b.vertices, b.edges, b.srcIdx, b.dstIdx, b.vseen, sortedByID(b.vertices)), nil
}

// sortedByID returns the vertex indices ordered by id. Ids usually arrive
// ascending (generators, written files), which one scan detects; only
// then-unsorted tables pay for a sort.
func sortedByID(vertices []Vertex) []int32 {
	perm := make([]int32, len(vertices))
	sorted := true
	for i := range perm {
		perm[i] = int32(i)
		sorted = sorted && (i == 0 || vertices[i-1].ID < vertices[i].ID)
	}
	if !sorted {
		slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(vertices[a].ID, vertices[b].ID) })
	}
	return perm
}

// MustBuild is Build that panics on error; for tests and examples.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func byStart(a, b PropEntry) int { return cmp.Compare(a.Interval.Start, b.Interval.Start) }

// normalizeProps sorts each label's entries by start and rejects entries with
// intersecting intervals and different values (Definition 1). Entries with
// intersecting intervals and the same value are rejected too: they indicate a
// malformed input. The error names the label and the pair; the caller, which
// knows the owner, wraps it — nothing is formatted unless validation fails.
func normalizeProps(p Props) error {
	for li, entries := range p.entries {
		if !slices.IsSortedFunc(entries, byStart) {
			slices.SortFunc(entries, byStart)
		}
		for i := 1; i < len(entries); i++ {
			if entries[i-1].Interval.Intersects(entries[i].Interval) {
				return fmt.Errorf("label %q: %v and %v", p.labels[li], entries[i-1].Interval, entries[i].Interval)
			}
		}
	}
	return nil
}
