// Package tgraph implements the temporal property graph data model of
// Sec. III of the ICM paper: a directed multigraph whose vertices, edges and
// property values each carry a half-open lifespan, subject to the paper's
// three soundness constraints (unique entities, referential integrity of
// edges, referential integrity of properties).
//
// Graphs are immutable once built via Builder (or patched from a predecessor,
// Patch); the representation is a CSR-style adjacency layout suitable for the
// BSP engine.
package tgraph

import (
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	ival "graphite/internal/interval"
)

// VertexID uniquely identifies a vertex for its whole existence
// (Constraint 1: an id never re-occurs with a different lifespan).
type VertexID int64

// EdgeID uniquely identifies an edge.
type EdgeID int64

// PropEntry is one temporally scoped value of a property label. Within a
// label, entries with different values never overlap in time (Definition 1).
type PropEntry struct {
	Interval ival.Interval
	Value    int64
}

// Props holds an entity's temporally scoped properties: labels sorted
// lexicographically, each carrying its temporally partitioned values sorted
// by interval start. The zero value is an empty property set.
//
// The sorted slice-pair layout (rather than a map) keeps iteration
// deterministic and lets the snapshot decoder rebuild every property set
// from a few per-chunk slabs: opening a mapped graph allocates a handful of
// slices instead of one map per propertied vertex and edge.
type Props struct {
	labels  []string
	entries [][]PropEntry
}

// Len returns the number of labels present.
func (p Props) Len() int { return len(p.labels) }

// find returns the position of label, or -1 if absent. Linear scan:
// property sets carry at most a handful of labels.
func (p Props) find(label string) int {
	for i, l := range p.labels {
		if l == label {
			return i
		}
	}
	return -1
}

// ValueAt returns the value of label at time-point t and whether it exists.
func (p Props) ValueAt(label string, t ival.Time) (int64, bool) {
	for _, e := range p.Entries(label) {
		if e.Interval.Contains(t) {
			return e.Value, true
		}
	}
	return 0, false
}

// Entries returns the temporal values for label; nil if absent.
func (p Props) Entries(label string) []PropEntry {
	if i := p.find(label); i >= 0 {
		return p.entries[i]
	}
	return nil
}

// All iterates over (label, entries) pairs in ascending label order.
func (p Props) All() iter.Seq2[string, []PropEntry] {
	return func(yield func(string, []PropEntry) bool) {
		for i, l := range p.labels {
			if !yield(l, p.entries[i]) {
				return
			}
		}
	}
}

// search returns the sorted position of label and whether it is present.
// Linear scan: property sets carry at most a handful of labels.
func (p Props) search(label string) (int, bool) {
	i := 0
	for i < len(p.labels) && p.labels[i] < label {
		i++
	}
	return i, i < len(p.labels) && p.labels[i] == label
}

// AddAll appends a run of values to label, inserting the label at its
// sorted position if new; a new label takes es itself as its entry slice, so
// the caller gives the slice up. Entries within a label are kept in
// insertion order; Builder.Build and Patch sort and validate them.
func (p *Props) AddAll(label string, es []PropEntry) {
	if i, ok := p.search(label); ok {
		p.entries[i] = append(p.entries[i], es...)
	} else {
		p.insert(i, label, es)
	}
}

func (p *Props) insert(i int, label string, es []PropEntry) {
	if p.labels == nil {
		// Room for two labels (the travel-time/travel-cost pair every
		// generated and ingested edge carries) in one allocation per header
		// slice, rather than one per label.
		p.labels = make([]string, 0, 2)
		p.entries = make([][]PropEntry, 0, 2)
	}
	p.labels = slices.Insert(p.labels, i, label)
	p.entries = slices.Insert(p.entries, i, es)
}

// Vertex is a temporal vertex 〈vid, τ〉 with optional temporal properties.
type Vertex struct {
	ID       VertexID
	Lifespan ival.Interval
	Props    Props
}

// Edge is a temporal directed edge 〈eid, src, dst, τ〉 with optional temporal
// properties. Src and Dst lifespans contain Lifespan (Constraint 2).
type Edge struct {
	ID       EdgeID
	Src      VertexID
	Dst      VertexID
	Lifespan ival.Interval
	Props    Props
}

// Graph is an immutable temporal property graph.
//
// Every graph carries vsorted, the vertex indices ordered by id, which
// IndexOf searches and from which a derived graph (Slice, ExtractPartition)
// takes its own index by filtering. A graph built by a Builder also keeps
// its id map, which answers IndexOf without the search.
type Graph struct {
	vertices    []Vertex
	edges       []Edge
	vindex      map[VertexID]int32 // VertexID -> index into vertices (built graphs)
	vsorted     []int32            // vertex indices sorted by id
	out         [][]int32          // vertex index -> indices into edges (out-edges)
	in          [][]int32          // vertex index -> indices into edges (in-edges)
	srcIdx      []int32            // edge index -> dense source vertex index
	dstIdx      []int32            // edge index -> dense destination vertex index
	lifespan    ival.Interval      // hull of all vertex lifespans
	horizon     ival.Time          // largest finite boundary, set once (see Horizon)
	horizonOnce sync.Once
	derived     sync.Map                // see Derived
	lineage     atomic.Pointer[Lineage] // see Lineage
}

// assemble is the one tail of graph construction in memory: entity tables
// that already satisfy the constraints, each edge's dense endpoint indices
// and the id index in, graph out. It validates nothing — Builder.Build and
// Patch check before they call, Slice and ExtractPartition start from a
// graph that was checked — and adds what is derived from the tables:
// adjacency and the lifespan hull (the horizon is derived when first read).
// Adjacency rows are sub-slices of one shared array filled by counting, in
// ascending edge order per vertex, so the allocation count is the same for
// every |V| and |E|.
func assemble(vertices []Vertex, edges []Edge, srcIdx, dstIdx []int32, vindex map[VertexID]int32, vsorted []int32) *Graph {
	g := &Graph{
		vertices: vertices,
		edges:    edges,
		vindex:   vindex,
		vsorted:  vsorted,
		srcIdx:   srcIdx,
		dstIdx:   dstIdx,
	}
	for i := range vertices {
		g.lifespan = g.lifespan.Union(vertices[i].Lifespan)
	}
	nv, ne := len(vertices), len(edges)
	deg := make([]int32, 2*nv) // out-degrees, then in-degrees
	for i := range edges {
		deg[srcIdx[i]]++
		deg[nv+int(dstIdx[i])]++
	}
	rows := make([][]int32, 2*nv)
	slots := make([]int32, 2*ne)
	g.out, g.in = rows[:nv:nv], rows[nv:]
	outAt, inAt := 0, ne
	for v := 0; v < nv; v++ {
		od, id := int(deg[v]), int(deg[nv+v])
		g.out[v] = slots[outAt : outAt : outAt+od]
		g.in[v] = slots[inAt : inAt : inAt+id]
		outAt += od
		inAt += id
	}
	for i := range edges {
		s, d := srcIdx[i], dstIdx[i]
		g.out[s] = append(g.out[s], int32(i)) // within capacity: never reallocates
		g.in[d] = append(g.in[d], int32(i))
	}
	return g
}

// Derived returns the value attached to the graph under key, creating it
// with build on first use. It is the hook by which a layer above keeps what
// it computes from the immutable graph — and from nothing else — with the
// graph: derived once, shared by every user of the graph, and collected
// with it, so nothing above needs a cache to size or to invalidate. Under
// concurrent first use build may run more than once; one result wins and is
// what every caller gets. Use a key type private to the calling package.
//
// Values copy what they need out of the graph instead of pointing into it: a
// mapped graph's storage is unmapped by Close, not collected.
func (g *Graph) Derived(key any, build func() any) any {
	if v, ok := g.derived.Load(key); ok {
		return v
	}
	v, _ := g.derived.LoadOrStore(key, build())
	return v
}

// Lineage is what a graph made by Patch keeps of its predecessor, so that a
// layer above can carry a derived value forward instead of deriving it again:
// the predecessor's Derived values when the patch ran, and where each of the
// new graph's edges came from. An edge Patch copied is the predecessor's by
// value — the same lifespan, the same property storage — so whatever was
// derived from that edge alone still holds for it.
//
// It holds references to the values only, never the predecessor itself, so
// a lineage does not keep the predecessor's tables alive; and a graph's own
// derived values do not include its lineage, so lineages never chain.
type Lineage struct {
	derived map[any]any
	sources []int32
}

// Derived returns the predecessor's value under key, nil if it had none.
func (l *Lineage) Derived(key any) any { return l.derived[key] }

// Sources returns, per edge index of the new graph, the index the edge had in
// the predecessor, or -1 for an edge the patch gave. Must not be modified.
func (l *Lineage) Sources() []int32 { return l.sources }

// Lineage returns g's lineage: nil unless g is a patch of a predecessor that
// held derived values, and nil once released.
func (g *Graph) Lineage() *Lineage { return g.lineage.Load() }

// ReleaseLineage drops g's lineage. Call it once what g derives from it has
// been derived: until then it keeps the predecessor's derived values alive.
func (g *Graph) ReleaseLineage() { g.lineage.Store(nil) }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Lifespan returns the hull of all vertex lifespans: the graph's lifetime.
func (g *Graph) Lifespan() ival.Interval { return g.lifespan }

// Vertices returns the vertex slice in index order. Must not be modified.
func (g *Graph) Vertices() []Vertex { return g.vertices }

// Edges returns the edge slice in index order. Must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// Vertex returns the vertex with the given id, or nil if absent.
func (g *Graph) Vertex(id VertexID) *Vertex {
	i := g.IndexOf(id)
	if i < 0 {
		return nil
	}
	return &g.vertices[i]
}

// VertexAt returns the vertex at the given dense index.
func (g *Graph) VertexAt(i int) *Vertex { return &g.vertices[i] }

// IndexOf returns the dense index of a vertex id, or -1 if absent.
func (g *Graph) IndexOf(id VertexID) int {
	if g.vindex != nil {
		i, ok := g.vindex[id]
		if !ok {
			return -1
		}
		return int(i)
	}
	lo, hi := 0, len(g.vsorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.vertices[g.vsorted[mid]].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.vsorted) && g.vertices[g.vsorted[lo]].ID == id {
		return int(g.vsorted[lo])
	}
	return -1
}

// IndexByRank returns the dense index of the vertex with the r-th smallest
// id, 0 <= r < NumVertices: walking the ranks visits the vertices in
// ascending id order without sorting or searching.
func (g *Graph) IndexByRank(r int) int { return int(g.vsorted[r]) }

// ExistsIn reports whether any vertex exists inside the window — whether
// Slice(g, window) would keep anything.
func (g *Graph) ExistsIn(window ival.Interval) bool {
	for i := range g.vertices {
		if g.vertices[i].Lifespan.Intersects(window) {
			return true
		}
	}
	return false
}

// Edge returns the edge at the given dense index.
func (g *Graph) Edge(i int) *Edge { return &g.edges[i] }

// SrcIndex returns the dense vertex index of edge i's source.
func (g *Graph) SrcIndex(i int) int { return int(g.srcIdx[i]) }

// DstIndex returns the dense vertex index of edge i's destination.
func (g *Graph) DstIndex(i int) int { return int(g.dstIdx[i]) }

// OutEdges returns the dense edge indices of the out-edges of vertex index v.
func (g *Graph) OutEdges(v int) []int32 { return g.out[v] }

// InEdges returns the dense edge indices of the in-edges of vertex index v.
func (g *Graph) InEdges(v int) []int32 { return g.in[v] }

// OutDegreeAt returns the number of out-edges of vertex index v alive at t.
func (g *Graph) OutDegreeAt(v int, t ival.Time) int {
	n := 0
	for _, ei := range g.out[v] {
		if g.edges[ei].Lifespan.Contains(t) {
			n++
		}
	}
	return n
}

// InDegreeAt returns the number of in-edges of vertex index v alive at t.
func (g *Graph) InDegreeAt(v int, t ival.Time) int {
	n := 0
	for _, ei := range g.in[v] {
		if g.edges[ei].Lifespan.Contains(t) {
			n++
		}
	}
	return n
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("tgraph{|V|=%d |E|=%d lifespan=%v}", len(g.vertices), len(g.edges), g.lifespan)
}
