// Package stream builds temporal property graphs from event logs — the form
// real temporal datasets arrive in (contact traces, transaction logs, edit
// histories). An Accumulator consumes ordered events (vertex/edge appear,
// disappear, property changes) and materializes the interval graph the ICM
// runtime consumes; lifespans are derived from appear/disappear pairs, with
// still-open entities left unbounded (or cut at a horizon by Graph).
//
// This is the ingestion half of the paper's "streaming temporal graphs"
// future work: it turns a prefix of an event stream into a fully evolved
// graph at any cut-off point, and each later cut-off into a patch of the
// graph before it, which is all the state the accumulator keeps.
package stream

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// Op is an event kind.
type Op int

// Event kinds.
const (
	// AddVertex brings a vertex into existence at the event time.
	AddVertex Op = iota
	// RemoveVertex ends a vertex's lifespan at the event time (exclusive).
	RemoveVertex
	// AddEdge brings an edge into existence at the event time.
	AddEdge
	// RemoveEdge ends an edge's lifespan at the event time (exclusive).
	RemoveEdge
	// SetVertexProp starts a new value for a vertex property at the event
	// time, ending the previous value if any.
	SetVertexProp
	// SetEdgeProp starts a new value for an edge property at the event time.
	SetEdgeProp
)

// Event is one timestamped mutation.
type Event struct {
	Op    Op
	T     ival.Time
	V     tgraph.VertexID // vertex events and property owner
	E     tgraph.EdgeID   // edge events and property owner
	Src   tgraph.VertexID // AddEdge only
	Dst   tgraph.VertexID // AddEdge only
	Label string          // property events
	Value int64           // property events
}

// Errors surfaced by the accumulator.
var (
	ErrOutOfOrder   = errors.New("stream: events must be time-ordered")
	ErrUnknownOwner = errors.New("stream: event for unknown entity")
	ErrReopened     = errors.New("stream: entity re-added after removal (Constraint 1)")
	ErrStillOpen    = errors.New("stream: entity already open")
	// ErrTimeRange rejects an event time outside [0, ival.Infinity). Interval
	// validity requires Start >= 0, so a negative time would otherwise build
	// a silently wrong lifespan (or an invalid graph) much later, far from
	// the offending record; and an end at Infinity is what marks a lifespan
	// open, so an event there could close nothing.
	ErrTimeRange = errors.New("stream: event time outside [0, ∞)")
)

// Accumulator consumes events and materializes temporal graphs. Its state is
// the last epoch Patch returned, unclipped (base), and what that epoch cannot
// say: an overlay of the entities events touched since, the clock, the event
// count, and the ids whose lifespan came out empty (Retired), which no epoch
// holds and none may re-add. In an unclipped epoch an entity is open iff its
// lifespan ends at ival.Infinity, and a label's running value is its last
// entry when that ends there too: events have no "unset".
type Accumulator struct {
	base    *tgraph.Graph
	ov      overlay
	now     ival.Time
	events  int
	retired Retired
}

// Retired is the ids whose lifespan came out empty (added and removed at one
// time-point), each list ascending.
type Retired struct {
	Vertices []tgraph.VertexID
	Edges    []tgraph.EdgeID
}

// overlay is the entities events touched since base, each row as it now
// stands, and per vertex the change in its count of open edges.
type overlay struct {
	v    map[tgraph.VertexID]*entity
	e    map[tgraph.EdgeID]*entity
	open map[tgraph.VertexID]int
}

func newOverlay() overlay {
	return overlay{v: map[tgraph.VertexID]*entity{}, e: map[tgraph.EdgeID]*entity{}, open: map[tgraph.VertexID]int{}}
}

// entity is a row as the checks and the fold see it: its lifespan, open
// while it ends at ival.Infinity; an edge's endpoints; the properties of its
// base row; and the labels set since, each whole timeline, unclipped.
type entity struct {
	life     ival.Interval
	src, dst tgraph.VertexID
	props    tgraph.Props
	set      map[string][]tgraph.PropEntry
}

func (x *entity) closed() bool { return x.life.End != ival.Infinity }

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	empty, _ := tgraph.Patch(nil, nil, nil)
	return Resume(empty, 0, 0, Retired{})
}

// Resume returns an accumulator whose state is g, an epoch Patch returned,
// after events events, the last at now, with retired's ids retired. It
// reads g in place and the next Patch patches onto it, so g must stay
// readable until then (a mapped graph: until the patched epoch replaced it).
func Resume(g *tgraph.Graph, now ival.Time, events int, retired Retired) *Accumulator {
	retired = Retired{slices.Clip(retired.Vertices), slices.Clip(retired.Edges)} // Patch appends to copies
	return &Accumulator{base: g, ov: newOverlay(), now: now, events: events, retired: retired}
}

// Events returns the number of events applied.
func (a *Accumulator) Events() int { return a.events }

// Now returns the time of the last applied event.
func (a *Accumulator) Now() ival.Time { return a.now }

// Retired returns the ids retired so far; the caller must not modify them.
func (a *Accumulator) Retired() Retired { return a.retired }

// Apply folds one event into the accumulator. Events must arrive in
// non-decreasing time order.
func (a *Accumulator) Apply(ev Event) error {
	sv := spanView{a: a, ov: &a.ov}
	if err := sv.step(&a.now, ev); err != nil {
		return err
	}
	switch ev.Op {
	case SetVertexProp:
		x, _ := sv.vertex(ev.V)
		a.ov.v[ev.V] = x
		x.setProp(ev.Label, ev.Value, ev.T)
	case SetEdgeProp:
		x, _ := sv.edge(ev.E)
		a.ov.e[ev.E] = x
		x.setProp(ev.Label, ev.Value, ev.T)
	}
	a.events++
	return nil
}

// setProp ends the label's running value at t, dropping it if it began at t,
// and starts a new one.
func (x *entity) setProp(label string, value int64, t ival.Time) {
	es, ok := x.set[label]
	if !ok {
		es = slices.Clone(x.props.Entries(label))
	}
	if n := len(es); n > 0 && es[n-1].Interval.End == ival.Infinity {
		if es[n-1].Interval.Start == t {
			es = es[:n-1]
		} else {
			es[n-1].Interval.End = t
		}
	}
	if x.set == nil {
		x.set = map[string][]tgraph.PropEntry{}
	}
	x.set[label] = append(es, tgraph.PropEntry{Interval: ival.New(t, ival.Infinity), Value: value})
}

// Preflight validates a whole batch against the accumulator's current state
// without mutating it, so callers can make ingest batch-atomic: either every
// event in the batch would be accepted by Apply, or the batch is rejected
// with the index of the first offending event and nothing changes. It runs
// Apply's own checks, over copies of the rows the batch touches; property
// contents need no validation beyond an alive owner.
func (a *Accumulator) Preflight(batch []Event) error {
	now := a.now
	scratch := newOverlay()
	sv := spanView{a: a, ov: &scratch}
	for i, ev := range batch {
		if err := sv.step(&now, ev); err != nil {
			return fmt.Errorf("stream: batch event %d: %w", i, err)
		}
	}
	return nil
}

// spanView is the rows an event is checked against and recorded in: the
// accumulator's own overlay, or Preflight's scratch overlay over it, which
// takes a copy of each row it changes so that the accumulator's stay as
// they are.
type spanView struct {
	a  *Accumulator
	ov *overlay
}

// vertex returns id's row as the view shows it, and whether it exists: the
// view's own, or a copy of the accumulator's overlay row, of an empty
// lifespan for a retired id, or of base's row.
func (sv spanView) vertex(id tgraph.VertexID) (*entity, bool) {
	if x, ok := sv.ov.v[id]; ok {
		return x, true
	}
	if x, ok := sv.a.ov.v[id]; ok {
		c := *x
		return &c, true
	}
	if _, ok := slices.BinarySearch(sv.a.retired.Vertices, id); ok {
		return &entity{}, true
	}
	if i := sv.a.base.IndexOf(id); i >= 0 {
		v := sv.a.base.VertexAt(i)
		return &entity{life: v.Lifespan, props: v.Props}, true
	}
	return nil, false
}

// edge is vertex for edges; base's edges are in ascending id order.
func (sv spanView) edge(id tgraph.EdgeID) (*entity, bool) {
	if x, ok := sv.ov.e[id]; ok {
		return x, true
	}
	if x, ok := sv.a.ov.e[id]; ok {
		c := *x
		return &c, true
	}
	if _, ok := slices.BinarySearch(sv.a.retired.Edges, id); ok {
		return &entity{}, true
	}
	es := sv.a.base.Edges()
	if i, ok := slices.BinarySearchFunc(es, id, func(e tgraph.Edge, id tgraph.EdgeID) int { return cmp.Compare(e.ID, id) }); ok {
		e := &es[i]
		return &entity{life: e.Lifespan, src: e.Src, dst: e.Dst, props: e.Props}, true
	}
	return nil, false
}

// alive reports whether vertex id is open.
func (sv spanView) alive(id tgraph.VertexID) bool {
	x, ok := sv.vertex(id)
	return ok && !x.closed()
}

// openEdges returns the number of vertex id's edges open in the view: those
// open in base, plus the overlays' changes.
func (sv spanView) openEdges(id tgraph.VertexID) int {
	n := sv.ov.open[id]
	if sv.ov != &sv.a.ov {
		n += sv.a.ov.open[id]
	}
	if b, i := sv.a.base, sv.a.base.IndexOf(id); i >= 0 {
		for _, adj := range [2][]int32{b.OutEdges(i), b.InEdges(i)} {
			for _, ei := range adj {
				if b.Edge(int(ei)).Lifespan.End == ival.Infinity {
					n++
				}
			}
		}
	}
	return n
}

// step checks ev against the view and records its effect on the lifespans,
// moving the clock *now to it: time range, order, reopen/still-open,
// referential integrity, no vertex removed under an open edge.
func (sv spanView) step(now *ival.Time, ev Event) error {
	if ev.T < 0 || ev.T == ival.Infinity {
		return fmt.Errorf("%w: %d", ErrTimeRange, ev.T)
	}
	if ev.T < *now {
		return fmt.Errorf("%w: event at %d after %d", ErrOutOfOrder, ev.T, *now)
	}
	*now = ev.T
	switch ev.Op {
	case AddVertex:
		if x, ok := sv.vertex(ev.V); ok {
			return reopened("vertex", int64(ev.V), x)
		}
		sv.ov.v[ev.V] = &entity{life: ival.New(ev.T, ival.Infinity)}
	case RemoveVertex:
		x, ok := sv.vertex(ev.V)
		if !ok || x.closed() {
			return fmt.Errorf("%w: vertex %d", ErrUnknownOwner, ev.V)
		}
		if n := sv.openEdges(ev.V); n > 0 {
			return fmt.Errorf("%w: vertex %d removed with %d edges open", tgraph.ErrEdgeOutlives, ev.V, n)
		}
		x.life.End = ev.T
		sv.ov.v[ev.V] = x
	case AddEdge:
		if x, ok := sv.edge(ev.E); ok {
			return reopened("edge", int64(ev.E), x)
		}
		if !sv.alive(ev.Src) || !sv.alive(ev.Dst) {
			return fmt.Errorf("%w: edge %d endpoints at t=%d", ErrUnknownOwner, ev.E, ev.T)
		}
		sv.ov.e[ev.E] = &entity{life: ival.New(ev.T, ival.Infinity), src: ev.Src, dst: ev.Dst}
		sv.ov.open[ev.Src]++
		sv.ov.open[ev.Dst]++
	case RemoveEdge:
		x, ok := sv.edge(ev.E)
		if !ok || x.closed() {
			return fmt.Errorf("%w: edge %d", ErrUnknownOwner, ev.E)
		}
		x.life.End = ev.T
		sv.ov.e[ev.E] = x
		sv.ov.open[x.src]--
		sv.ov.open[x.dst]--
	case SetVertexProp:
		if !sv.alive(ev.V) {
			return fmt.Errorf("%w: vertex %d", ErrUnknownOwner, ev.V)
		}
	case SetEdgeProp:
		if x, ok := sv.edge(ev.E); !ok || x.closed() {
			return fmt.Errorf("%w: edge %d", ErrUnknownOwner, ev.E)
		}
	default:
		return fmt.Errorf("stream: unknown op %d", ev.Op)
	}
	return nil
}

// reopened is the error for adding an entity that exists, x.
func reopened(kind string, id int64, x *entity) error {
	if x.closed() {
		return fmt.Errorf("%w: %s %d", ErrReopened, kind, id)
	}
	return fmt.Errorf("%w: %s %d", ErrStillOpen, kind, id)
}

// Graph materializes the accumulated state as a valid temporal graph:
// open entities unbounded when horizon is zero or negative, else the window
// [0, horizon) of that graph (tgraph.Slice), where no end lies past the
// horizon. Unlike Patch it leaves the accumulator as it is.
func (a *Accumulator) Graph(horizon ival.Time) (*tgraph.Graph, error) {
	g, err := a.fold()
	if err != nil || horizon <= 0 {
		return g, err
	}
	return tgraph.Slice(g, ival.New(0, horizon))
}

// Patch materializes the accumulated state as the epoch after the last one
// Patch returned: only the entities events touched since, patched onto it
// (tgraph.Patch). The result becomes the accumulator's base, so it must stay
// readable until the next Patch; the last one does not need to.
func (a *Accumulator) Patch() (*tgraph.Graph, error) {
	g, err := a.fold()
	if err != nil {
		return nil, err
	}
	a.retired.Vertices = retire(a.retired.Vertices, a.ov.v)
	a.retired.Edges = retire(a.retired.Edges, a.ov.e)
	a.base, a.ov = g, newOverlay()
	return g, nil
}

// retire adds the ids of m whose lifespan is empty to ids.
func retire[K cmp.Ordered](ids []K, m map[K]*entity) []K {
	n := len(ids)
	for id, x := range m {
		if x.life.IsEmpty() {
			ids = append(ids, id)
		}
	}
	if len(ids) > n {
		slices.Sort(ids)
	}
	return ids
}

// fold builds the overlay's rows, by sorted id, and patches them onto base.
func (a *Accumulator) fold() (*tgraph.Graph, error) {
	vids, eids := sortedKeys(a.ov.v), sortedKeys(a.ov.e)
	vs := make([]tgraph.Vertex, len(vids))
	for i, id := range vids {
		x := a.ov.v[id]
		vs[i] = tgraph.Vertex{ID: id, Lifespan: x.life, Props: x.timelines()}
	}
	es := make([]tgraph.Edge, len(eids))
	for i, id := range eids {
		x := a.ov.e[id]
		es[i] = tgraph.Edge{ID: id, Src: x.src, Dst: x.dst, Lifespan: x.life, Props: x.timelines()}
	}
	return tgraph.Patch(a.base, vs, es)
}

// timelines returns x's properties clipped to its lifespan: each label's
// timeline a fresh exactly-sized slice, or none when the clip empties it.
func (x *entity) timelines() tgraph.Props {
	var p tgraph.Props
	add := func(label string, entries []tgraph.PropEntry) {
		out := make([]tgraph.PropEntry, 0, len(entries))
		for _, e := range entries {
			if c := e.Interval.Intersect(x.life); !c.IsEmpty() {
				out = append(out, tgraph.PropEntry{Interval: c, Value: e.Value})
			}
		}
		if len(out) > 0 {
			p.AddAll(label, out)
		}
	}
	for label, entries := range x.props.All() {
		if _, ok := x.set[label]; !ok {
			add(label, entries)
		}
	}
	for label, entries := range x.set {
		add(label, entries)
	}
	return p
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// EventsOf decomposes a graph into the time-ordered event log that builds
// it: within a time-point additions come before the properties that need
// their owner, removals last. Replaying it reproduces g when every property
// value runs until the next one or its owner's end, as in generated graphs:
// the log has no event that unsets a property.
func EventsOf(g *tgraph.Graph) []Event {
	var evs []Event
	for i := range g.Vertices() {
		v := g.VertexAt(i)
		evs = append(evs, Event{Op: AddVertex, T: v.Lifespan.Start, V: v.ID})
		for label, entries := range v.Props.All() {
			for _, p := range entries {
				evs = append(evs, Event{Op: SetVertexProp, T: p.Interval.Start, V: v.ID, Label: label, Value: p.Value})
			}
		}
		if !v.Lifespan.IsUnbounded() {
			evs = append(evs, Event{Op: RemoveVertex, T: v.Lifespan.End, V: v.ID})
		}
	}
	for i := range g.Edges() {
		e := g.Edge(i)
		evs = append(evs, Event{Op: AddEdge, T: e.Lifespan.Start, E: e.ID, Src: e.Src, Dst: e.Dst})
		for label, entries := range e.Props.All() {
			for _, p := range entries {
				evs = append(evs, Event{Op: SetEdgeProp, T: p.Interval.Start, E: e.ID, Label: label, Value: p.Value})
			}
		}
		if !e.Lifespan.IsUnbounded() {
			evs = append(evs, Event{Op: RemoveEdge, T: e.Lifespan.End, E: e.ID})
		}
	}
	class := [...]int{AddVertex: 0, AddEdge: 1, SetVertexProp: 2, SetEdgeProp: 2, RemoveEdge: 3, RemoveVertex: 4}
	slices.SortStableFunc(evs, func(a, b Event) int {
		if a.T != b.T {
			return int(a.T - b.T)
		}
		return class[a.Op] - class[b.Op]
	})
	return evs
}

// ReadLog parses a text event log, one event per line:
//
//	av <t> <vid>                  add vertex
//	rv <t> <vid>                  remove vertex
//	ae <t> <eid> <src> <dst>      add edge
//	re <t> <eid>                  remove edge
//	vp <t> <vid> <label> <value>  set vertex property
//	ep <t> <eid> <label> <value>  set edge property
func ReadLog(r io.Reader, acc *Accumulator) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ev, err := parseEvent(line)
		if err != nil {
			return fmt.Errorf("stream: line %d: %w", lineNo, err)
		}
		if err := acc.Apply(ev); err != nil {
			return fmt.Errorf("stream: line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// ParseEvent parses one text event-log line into an Event (see ReadLog for
// the format). Comments and blank lines are ReadLog's concern; this expects
// exactly one record.
func ParseEvent(line string) (Event, error) { return parseEvent(line) }

func parseEvent(line string) (Event, error) {
	f := strings.Fields(line)
	need := func(n int) error {
		if len(f) != n {
			return fmt.Errorf("record %q needs %d fields", f[0], n-1)
		}
		return nil
	}
	// num surfaces the first malformed number instead of silently reading
	// zero — a mistyped id or timestamp must fail the line, not corrupt the
	// graph.
	var numErr error
	num := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil && numErr == nil {
			numErr = fmt.Errorf("bad number %q", s)
		}
		return v
	}
	if len(f) < 2 {
		return Event{}, fmt.Errorf("short record")
	}
	t := num(f[1])
	var ev Event
	switch f[0] {
	case "av":
		if err := need(3); err != nil {
			return Event{}, err
		}
		ev = Event{Op: AddVertex, T: t, V: tgraph.VertexID(num(f[2]))}
	case "rv":
		if err := need(3); err != nil {
			return Event{}, err
		}
		ev = Event{Op: RemoveVertex, T: t, V: tgraph.VertexID(num(f[2]))}
	case "ae":
		if err := need(5); err != nil {
			return Event{}, err
		}
		ev = Event{Op: AddEdge, T: t, E: tgraph.EdgeID(num(f[2])),
			Src: tgraph.VertexID(num(f[3])), Dst: tgraph.VertexID(num(f[4]))}
	case "re":
		if err := need(3); err != nil {
			return Event{}, err
		}
		ev = Event{Op: RemoveEdge, T: t, E: tgraph.EdgeID(num(f[2]))}
	case "vp":
		if err := need(5); err != nil {
			return Event{}, err
		}
		ev = Event{Op: SetVertexProp, T: t, V: tgraph.VertexID(num(f[2])), Label: f[3], Value: num(f[4])}
	case "ep":
		if err := need(5); err != nil {
			return Event{}, err
		}
		ev = Event{Op: SetEdgeProp, T: t, E: tgraph.EdgeID(num(f[2])), Label: f[3], Value: num(f[4])}
	default:
		return Event{}, fmt.Errorf("unknown record %q", f[0])
	}
	if numErr != nil {
		return Event{}, numErr
	}
	if ev.T < 0 || ev.T == ival.Infinity {
		return Event{}, fmt.Errorf("%w: %d", ErrTimeRange, ev.T)
	}
	return ev, nil
}
