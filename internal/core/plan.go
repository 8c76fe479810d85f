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
// their far endpoints, and per piece the value of every declared property
// label. It is immutable once built, laid out CSR-flat in pointer-free arrays,
// and holds values only — nothing in it points into the graph's storage.
//
// The piece arrays are in the order scatter walks them: vertex 0's targets'
// pieces, then vertex 1's, so targets[k+1].lo == targets[k].hi and an edge
// traversed in both directions holds its pieces twice.
//
// A piece is cut at every value boundary of the declared labels, so each
// label is constant over it: the value the plan holds is what Props.ValueAt
// returns at any time-point of the piece, absence included.
type scatterPlan struct {
	at        []int32         // edge i's first target in target order is targets[at[i]]
	pieces    []ival.Interval // every target's pieces, target after target
	match     []ival.Interval // per piece: what an update must intersect; aliases pieces without a slack label
	slots     int             // value columns per piece: one per Options.PropLabels entry, at most maxPropSlots
	values    []int64         // piece k's value of label slot s is values[k*slots+s]; 0 where absent
	present   []uint8         // per piece: bit s is set when label slot s has a value on the piece
	targetOff []int32         // vertex v's targets are targets[targetOff[v]:targetOff[v+1]]
	targets   []target
}

// maxPropSlots is the number of labels a plan carries values for: one
// presence bit each in a piece's mask byte. Labels past it still cut pieces.
const maxPropSlots = 8

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

// planKey returns the key of the plan a run under o reads; its labels alias
// o's.
func (o *Options) planKey() planKey {
	return planKey{labels: o.PropLabels, slackLabel: o.ScatterSlackLabel, reverse: o.Reverse, undirected: o.Undirected}
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
// A patched epoch builds it from its predecessor's plan under the same key,
// when the predecessor has one (see inherit).
func planFor(g *tgraph.Graph, opts *Options) *scatterPlan {
	key := opts.planKey()
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
	ent.once.Do(func() {
		prev, from := c.inherit(g, ent.key)
		p := buildScatterPlan(g, ent.key, prev, from)
		c.mu.Lock() // a successor's inherit reads it under the lock
		ent.plan = p
		c.mu.Unlock()
	})
	return ent.plan
}

// inherit returns the plan g's predecessor built under key and where each of
// g's edges came from, or nils when g has no lineage or its predecessor no
// such plan. It releases g's lineage once every plan the predecessor had built
// has an entry in c, g's own cache: nothing is left to take from it, and
// holding it would keep the predecessor's plans alive with g. Nested locks are
// always taken predecessor first, so they cannot cycle.
func (c *planCache) inherit(g *tgraph.Graph, key planKey) (*scatterPlan, []int32) {
	lin := g.Lineage()
	if lin == nil {
		return nil, nil
	}
	var prev *scatterPlan
	used := true
	if pc, ok := lin.Derived(planCacheKey{}).(*planCache); ok {
		pc.mu.Lock()
		c.mu.Lock()
		for _, e := range pc.entries {
			if e.plan == nil {
				continue
			}
			if e.key.equal(key) {
				prev = e.plan
			}
			used = used && slices.ContainsFunc(c.entries, func(o *planEntry) bool { return o.key.equal(e.key) })
		}
		c.mu.Unlock()
		pc.mu.Unlock()
	}
	if used {
		g.ReleaseLineage()
	}
	if prev == nil {
		return nil, nil
	}
	return prev, lin.Sources()
}

// buildScatterPlan lays the plan out in target order directly: a sweep over
// the edges counts each edge's pieces, the targets are laid out with their
// piece ranges, a second sweep fills each edge's pieces in at its first
// target, and a pass over the targets copies the rest and takes the hulls.
// The sweeps share one boundary scratch, so the number of allocations does
// not depend on the size of the graph, and each looks an edge's labels up
// once: pieces, match intervals and values are all read off the entry slices
// edgeBounds found.
//
// Given prev, the plan of g's predecessor under the same key, and from, the
// predecessor's index of each of g's edges (-1 for an edge the patch gave; see
// tgraph.Lineage), an edge copied from the predecessor takes its piece count,
// pieces, match intervals and values from prev instead: it has the lifespan
// and the property storage it had there, so they are what edgeBounds would
// find again. A run of targets whose edges were consecutive targets in prev
// is copied at once: in a forward or reverse plan an untouched vertex's whole
// range is one copy. Without prev every edge is given.
func buildScatterPlan(g *tgraph.Graph, key planKey, prev *scatterPlan, from []int32) *scatterPlan {
	nE, nV := g.NumEdges(), g.NumVertices()
	var stack [32]ival.Time
	bounds := stack[:0]
	var held [maxPropSlots][]tgraph.PropEntry
	copied := func(ei int32) bool { return prev != nil && from[ei] >= 0 }

	// at[i] holds ^(edge i's piece count) until its first target is laid out.
	at := make([]int32, nE)
	for i := range at {
		if copied(int32(i)) {
			tg := &prev.targets[prev.at[from[i]]]
			at[i] = ^(tg.hi - tg.lo)
			continue
		}
		bounds = edgeBounds(bounds[:0], g.Edge(i), key.labels, &held)
		n := int32(0)
		for b := 0; b+1 < len(bounds); b++ {
			if bounds[b] != bounds[b+1] {
				n++
			}
		}
		at[i] = ^n
	}

	forward, backward := !key.reverse || key.undirected, key.reverse || key.undirected
	n := nE // every edge is an out-edge of one vertex and an in-edge of one
	if key.undirected {
		n = 2 * nE
	}
	p := &scatterPlan{
		at:        at,
		slots:     min(len(key.labels), maxPropSlots),
		targets:   make([]target, 0, n),
		targetOff: make([]int32, nV+1),
	}
	lo := int32(0)
	add := func(ei int32, dst int) {
		n := at[ei]
		if n < 0 {
			n, at[ei] = ^n, int32(len(p.targets))
		} else {
			n = p.targets[n].hi - p.targets[n].lo // the edge's other direction
		}
		p.targets = append(p.targets, target{edge: ei, dst: int32(dst), lo: lo, hi: lo + n})
		lo += n
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

	p.pieces = make([]ival.Interval, lo)
	p.match = p.pieces
	if key.slackLabel != "" {
		p.match = make([]ival.Interval, lo)
	}
	if p.slots > 0 {
		p.values = make([]int64, int(lo)*p.slots)
		p.present = make([]uint8, lo)
	}
	// copyFrom copies src's pieces [lo, hi), match intervals and values to k.
	copyFrom := func(k int32, src *scatterPlan, lo, hi int32) {
		copy(p.pieces[k:], src.pieces[lo:hi])
		if key.slackLabel != "" {
			copy(p.match[k:], src.match[lo:hi])
		}
		if p.slots > 0 {
			copy(p.values[int(k)*p.slots:], src.values[int(lo)*p.slots:int(hi)*p.slots])
			copy(p.present[k:], src.present[lo:hi])
		}
	}
	// Until the last pass restores it, at[i] is ^(edge i's piece offset): a
	// fill reading targets[at[i]].lo instead made NewRuntime/cold 1.29× slower.
	for k, tg := range p.targets {
		if at[tg.edge] == int32(k) {
			at[tg.edge] = ^tg.lo
		}
	}
	for i := 0; i < nE; i++ {
		if copied(int32(i)) {
			continue
		}
		e := g.Edge(i)
		bounds = edgeBounds(bounds[:0], e, key.labels, &held)
		var slack []tgraph.PropEntry
		if key.slackLabel != "" {
			slack = e.Props.Entries(key.slackLabel)
		}
		// Pieces ascend and so do a label's entries, so one cursor per entry
		// slice finds every piece's value without searching.
		var cur [maxPropSlots]int
		slackCur := 0
		k := ^at[i]
		for b := 0; b+1 < len(bounds); b++ {
			if bounds[b] == bounds[b+1] {
				continue
			}
			piece := ival.New(bounds[b], bounds[b+1])
			p.pieces[k] = piece
			if p.slots > 0 {
				vals := p.values[int(k)*p.slots:][:p.slots]
				var mask uint8
				for s := range vals {
					var ok bool
					if cur[s], vals[s], ok = valueFrom(held[s], cur[s], piece.Start); ok {
						mask |= 1 << s
					}
				}
				p.present[k] = mask
			}
			if key.slackLabel != "" {
				var by int64
				slackCur, by, _ = valueFrom(slack, slackCur, piece.Start)
				p.match[k] = piece.Translate(by)
			}
			k++
		}
	}
	// at[i] is restored at edge i's first target; a later target of the edge
	// is its other direction, and copies the pieces from there.
	for k := 0; k < len(p.targets); {
		tg, j := &p.targets[k], k+1
		if f := at[tg.edge]; f >= 0 {
			copyFrom(tg.lo, p, p.targets[f].lo, p.targets[f].hi)
		} else if copied(tg.edge) {
			q := prev.at[from[tg.edge]]
			for j < len(p.targets) && copied(p.targets[j].edge) && prev.at[from[p.targets[j].edge]] == q+int32(j-k) {
				j++
			}
			copyFrom(tg.lo, prev, prev.targets[q].lo, prev.targets[q+int32(j-k)-1].hi)
		}
		for ; k < j; k++ {
			tg := &p.targets[k]
			if at[tg.edge] < 0 {
				at[tg.edge] = int32(k)
			}
			for _, m := range p.match[tg.lo:tg.hi] {
				tg.hull = tg.hull.Union(m)
			}
		}
	}
	return p
}

// edgeBounds appends, sorted ascending, the lifespan ends of e and between
// them the ends of every property value of the given labels (all labels when
// none are given) that fall inside the lifespan. Consecutive distinct bounds
// delimit the pieces over which those properties are time-invariant. It
// leaves in held the entry slices of the first maxPropSlots labels (nil for a
// label e lacks). Only the bounds inside the lifespan need sorting, and they
// arrive nearly sorted, so an insertion sort finishes in about one pass
// (slices.Sort made the cold build 16 % slower).
func edgeBounds(bounds []ival.Time, e *tgraph.Edge, labels []string, held *[maxPropSlots][]tgraph.PropEntry) []ival.Time {
	life := e.Lifespan
	bounds = append(bounds, life.Start)
	add := func(entries []tgraph.PropEntry) {
		for _, p := range entries {
			x := p.Interval.Intersect(life)
			if x.IsEmpty() {
				continue
			}
			if x.Start != life.Start {
				bounds = append(bounds, x.Start)
			}
			if x.End != life.End {
				bounds = append(bounds, x.End)
			}
		}
	}
	if len(labels) == 0 {
		for _, entries := range e.Props.All() {
			add(entries)
		}
	}
	for s, l := range labels {
		entries := e.Props.Entries(l)
		if s < maxPropSlots {
			held[s] = entries
		}
		add(entries)
	}
	for i := 2; i < len(bounds); i++ {
		for j := i; j > 1 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	return append(bounds, life.End)
}

// valueFrom is Props.ValueAt for a caller asking at ascending time-points: it
// returns the value in force at t among entries[c:] and the cursor to pass
// with the next, later t. Entries are sorted by start (the Builder and the
// snapshot decoder both guarantee it), so the first one ending after t is the
// only one that can hold t.
func valueFrom(entries []tgraph.PropEntry, c int, t ival.Time) (int, int64, bool) {
	for c < len(entries) && entries[c].Interval.End <= t {
		c++
	}
	if c < len(entries) && entries[c].Interval.Start <= t {
		return c, entries[c].Value, true
	}
	return c, 0, false
}
