package core

import (
	"slices"
	"sync"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// scatterPlan is everything the scatter step reads that depends only on the
// graph and on the Options fields in planKey: each traversed edge's lifespan
// cut at its property boundaries (Sec. IV-A3), the interval that triggers
// scatter for each piece, and per vertex the edges scatter traverses with
// their far endpoints. It is immutable once built, laid out CSR-flat in four
// pointer-free arrays, and holds values only — nothing in it points into the
// graph's storage.
type scatterPlan struct {
	pieces    []ival.Interval // every edge's pieces, edge after edge
	match     []ival.Interval // per piece: what an update must intersect; aliases pieces without a slack label
	targetOff []int32         // vertex v's targets are targets[targetOff[v]:targetOff[v+1]]
	targets   []target
}

// target is one edge a vertex's scatter traverses: the dense index of the
// endpoint messages go to, the edge's piece range pieces[lo:hi], and the
// smallest interval covering match[lo:hi] — an update that misses the hull
// meets none of the pieces, so scatter skips the edge without reading them.
type target struct {
	edge   int32
	dst    int32
	lo, hi int32
	hull   ival.Interval
}

func (p *scatterPlan) targetsOf(v int) []target {
	return p.targets[p.targetOff[v]:p.targetOff[v+1]]
}

// planKey is exactly the part of Options a scatter plan depends on.
type planKey struct {
	labels     []string
	slackLabel string
	reverse    bool
	undirected bool
}

func (k planKey) equal(o planKey) bool {
	return k.slackLabel == o.slackLabel && k.reverse == o.reverse &&
		k.undirected == o.undirected && slices.Equal(k.labels, o.labels)
}

// planCache is the set of plans built so far for one graph; it hangs off the
// graph (tgraph.Graph.Derived) and is collected with it. A graph sees a
// handful of distinct keys over its lifetime, so lookup is a scan.
type planCache struct {
	mu      sync.Mutex
	entries []*planEntry
}

type planEntry struct {
	key  planKey
	once sync.Once
	plan *scatterPlan
}

type planCacheKey struct{}

func newPlanCache() any { return &planCache{} }

// planFor returns the scatter plan of g under opts, building it on the first
// request for its key; concurrent first requests build it once and share it.
func planFor(g *tgraph.Graph, opts *Options) *scatterPlan {
	key := planKey{
		labels:     opts.PropLabels,
		slackLabel: opts.ScatterSlackLabel,
		reverse:    opts.Reverse,
		undirected: opts.Undirected,
	}
	c := g.Derived(planCacheKey{}, newPlanCache).(*planCache)
	c.mu.Lock()
	var ent *planEntry
	for _, e := range c.entries {
		if e.key.equal(key) {
			ent = e
			break
		}
	}
	if ent == nil {
		key.labels = slices.Clone(key.labels) // the caller keeps its slice
		ent = &planEntry{key: key}
		c.entries = append(c.entries, ent)
	}
	c.mu.Unlock()
	ent.once.Do(func() { ent.plan = buildScatterPlan(g, ent.key) })
	return ent.plan
}

// buildScatterPlan lays the plan out in two sweeps over the edges — count the
// pieces, then fill exactly-sized arrays — sharing one boundary scratch, so
// the number of allocations does not depend on the size of the graph.
func buildScatterPlan(g *tgraph.Graph, key planKey) *scatterPlan {
	nE, nV := g.NumEdges(), g.NumVertices()
	var stack [32]ival.Time
	bounds := stack[:0]

	pieceOff := make([]int32, nE+1)
	for i := 0; i < nE; i++ {
		bounds = edgeBounds(bounds[:0], g.Edge(i), key.labels)
		n := int32(0)
		for b := 0; b+1 < len(bounds); b++ {
			if bounds[b] != bounds[b+1] {
				n++
			}
		}
		pieceOff[i+1] = pieceOff[i] + n
	}

	p := &scatterPlan{pieces: make([]ival.Interval, pieceOff[nE])}
	p.match = p.pieces
	if key.slackLabel != "" {
		p.match = make([]ival.Interval, len(p.pieces))
	}
	for i := 0; i < nE; i++ {
		e := g.Edge(i)
		bounds = edgeBounds(bounds[:0], e, key.labels)
		k := pieceOff[i]
		for b := 0; b+1 < len(bounds); b++ {
			if bounds[b] == bounds[b+1] {
				continue
			}
			piece := ival.New(bounds[b], bounds[b+1])
			p.pieces[k] = piece
			if key.slackLabel != "" {
				slack, _ := e.Props.ValueAt(key.slackLabel, piece.Start)
				p.match[k] = piece.Translate(slack)
			}
			k++
		}
	}

	forward := !key.reverse || key.undirected
	backward := key.reverse || key.undirected
	n := 0 // every edge is an out-edge of one vertex and an in-edge of one
	if forward {
		n += nE
	}
	if backward {
		n += nE
	}
	p.targets = make([]target, 0, n)
	p.targetOff = make([]int32, nV+1)
	add := func(ei int32, dst int) {
		tg := target{edge: ei, dst: int32(dst), lo: pieceOff[ei], hi: pieceOff[ei+1]}
		for _, m := range p.match[tg.lo:tg.hi] {
			tg.hull = tg.hull.Union(m)
		}
		p.targets = append(p.targets, tg)
	}
	for v := 0; v < nV; v++ {
		if forward {
			for _, ei := range g.OutEdges(v) {
				add(ei, g.DstIndex(int(ei)))
			}
		}
		if backward {
			for _, ei := range g.InEdges(v) {
				add(ei, g.SrcIndex(int(ei)))
			}
		}
		p.targetOff[v+1] = int32(len(p.targets))
	}
	return p
}

// edgeBounds appends, sorted ascending, the lifespan ends of e and the ends
// of every property value of the given labels (all labels when none are
// given) clipped to the lifespan. Consecutive distinct bounds delimit the
// pieces over which the edge's properties are time-invariant. Entries arrive
// nearly sorted, so an insertion sort finishes in about one pass (slices.Sort
// made the cold build 16 % slower).
func edgeBounds(bounds []ival.Time, e *tgraph.Edge, labels []string) []ival.Time {
	bounds = append(bounds, e.Lifespan.Start, e.Lifespan.End)
	add := func(entries []tgraph.PropEntry) {
		for _, p := range entries {
			if x := p.Interval.Intersect(e.Lifespan); !x.IsEmpty() {
				bounds = append(bounds, x.Start, x.End)
			}
		}
	}
	if len(labels) == 0 {
		for _, entries := range e.Props.All() {
			add(entries)
		}
	} else {
		for _, l := range labels {
			add(e.Props.Entries(l))
		}
	}
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	return bounds
}
