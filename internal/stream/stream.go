// Package stream builds temporal property graphs from event logs — the form
// real temporal datasets arrive in (contact traces, transaction logs, edit
// histories). An Accumulator consumes ordered events (vertex/edge appear,
// disappear, property changes) and materializes the interval graph the ICM
// runtime consumes; lifespans are derived from appear/disappear pairs, with
// still-open entities closed at a configurable horizon or left unbounded.
//
// This is the ingestion half of the paper's "streaming temporal graphs"
// future work: it turns a prefix of an event stream into a fully evolved
// graph at any cut-off point, and each later cut-off into a patch of the
// graph before it.
package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
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
	// ErrNegativeTime rejects events before time zero. Interval validity
	// requires Start >= 0, so a negative event time would otherwise build a
	// silently wrong lifespan (or an invalid graph) much later, far from the
	// offending record.
	ErrNegativeTime = errors.New("stream: negative event time")
)

// openSpan tracks an entity whose lifespan has begun.
type openSpan struct {
	start  ival.Time
	closed bool
	end    ival.Time
	ends   [2]tgraph.VertexID // edges: source, destination
	open   int                // vertices: incident edges not yet closed
}

// propRun tracks the active value run of one property label.
type propRun struct {
	start ival.Time
	value int64
}

// Accumulator consumes events and materializes temporal graphs.
type Accumulator struct {
	now ival.Time

	vspans map[tgraph.VertexID]*openSpan
	espans map[tgraph.EdgeID]*openSpan

	vprops map[tgraph.VertexID]map[string][]tgraph.PropEntry
	eprops map[tgraph.EdgeID]map[string][]tgraph.PropEntry
	vruns  map[tgraph.VertexID]map[string]propRun
	eruns  map[tgraph.EdgeID]map[string]propRun

	events int

	// base is the graph the last Patch returned, at baseHorizon; while there
	// is one, vdirty and edirty collect the ids events touch.
	base        *tgraph.Graph
	baseHorizon ival.Time
	vdirty      map[tgraph.VertexID]struct{}
	edirty      map[tgraph.EdgeID]struct{}
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		vspans: map[tgraph.VertexID]*openSpan{},
		espans: map[tgraph.EdgeID]*openSpan{},
		vprops: map[tgraph.VertexID]map[string][]tgraph.PropEntry{},
		eprops: map[tgraph.EdgeID]map[string][]tgraph.PropEntry{},
		vruns:  map[tgraph.VertexID]map[string]propRun{},
		eruns:  map[tgraph.EdgeID]map[string]propRun{},
		vdirty: map[tgraph.VertexID]struct{}{},
		edirty: map[tgraph.EdgeID]struct{}{},
	}
}

// Events returns the number of events applied.
func (a *Accumulator) Events() int { return a.events }

// Now returns the time of the last applied event.
func (a *Accumulator) Now() ival.Time { return a.now }

// Apply folds one event into the accumulator. Events must arrive in
// non-decreasing time order.
func (a *Accumulator) Apply(ev Event) error {
	if err := (spanView{v: a.vspans, e: a.espans}).step(&a.now, ev); err != nil {
		return err
	}
	switch ev.Op {
	case RemoveVertex:
		a.closeRuns(a.vruns[ev.V], byLabel(a.vprops, ev.V), ev.T)
		delete(a.vruns, ev.V)
	case RemoveEdge:
		a.closeRuns(a.eruns[ev.E], byLabel(a.eprops, ev.E), ev.T)
		delete(a.eruns, ev.E)
	case SetVertexProp:
		a.setProp(byLabel(a.vruns, ev.V), byLabel(a.vprops, ev.V), ev.Label, ev.Value, ev.T)
	case SetEdgeProp:
		a.setProp(byLabel(a.eruns, ev.E), byLabel(a.eprops, ev.E), ev.Label, ev.Value, ev.T)
	}
	if a.base != nil {
		switch ev.Op {
		case AddVertex, RemoveVertex, SetVertexProp:
			a.vdirty[ev.V] = struct{}{}
		default:
			a.edirty[ev.E] = struct{}{}
		}
	}
	a.events++
	return nil
}

// Preflight validates a whole batch against the accumulator's current state
// without mutating it, so callers can make ingest batch-atomic: either every
// event in the batch would be accepted by Apply, or the batch is rejected
// with the index of the first offending event and nothing changes. It runs
// Apply's own checks, over copies of the lifespans the batch touches;
// property contents need no validation beyond an alive owner.
func (a *Accumulator) Preflight(batch []Event) error {
	now := a.now
	sv := spanView{v: map[tgraph.VertexID]*openSpan{}, e: map[tgraph.EdgeID]*openSpan{}, baseV: a.vspans, baseE: a.espans}
	for i, ev := range batch {
		if err := sv.step(&now, ev); err != nil {
			return fmt.Errorf("stream: batch event %d: %w", i, err)
		}
	}
	return nil
}

// spanView is the lifespans an event is checked against and recorded in: the
// accumulator's own (no base), or Preflight's copies, each taken from the
// base maps on first touch so that the accumulator's own stay as they are.
type spanView struct {
	v     map[tgraph.VertexID]*openSpan
	e     map[tgraph.EdgeID]*openSpan
	baseV map[tgraph.VertexID]*openSpan
	baseE map[tgraph.EdgeID]*openSpan
}

// lookup returns id's span in m, copied there from base if only base has it.
func lookup[K comparable](m, base map[K]*openSpan, id K) (*openSpan, bool) {
	if s, ok := m[id]; ok {
		return s, true
	}
	if s, ok := base[id]; ok {
		c := *s
		m[id] = &c
		return &c, true
	}
	return nil, false
}

// alive returns the span of a vertex that exists at t.
func (sv spanView) alive(id tgraph.VertexID, t ival.Time) (*openSpan, bool) {
	s, ok := lookup(sv.v, sv.baseV, id)
	return s, ok && !s.closed && s.start <= t
}

// step checks ev against the view and records its effect on the lifespans,
// moving the clock *now to it: order, negative time, reopen/still-open,
// referential integrity, no vertex removed under an open edge.
func (sv spanView) step(now *ival.Time, ev Event) error {
	if ev.T < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeTime, ev.T)
	}
	if ev.T < *now {
		return fmt.Errorf("%w: event at %d after %d", ErrOutOfOrder, ev.T, *now)
	}
	*now = ev.T
	switch ev.Op {
	case AddVertex:
		if s, ok := lookup(sv.v, sv.baseV, ev.V); ok {
			if s.closed {
				return fmt.Errorf("%w: vertex %d", ErrReopened, ev.V)
			}
			return fmt.Errorf("%w: vertex %d", ErrStillOpen, ev.V)
		}
		sv.v[ev.V] = &openSpan{start: ev.T}
	case RemoveVertex:
		s, ok := lookup(sv.v, sv.baseV, ev.V)
		if !ok || s.closed {
			return fmt.Errorf("%w: vertex %d", ErrUnknownOwner, ev.V)
		}
		if s.open > 0 {
			return fmt.Errorf("%w: vertex %d removed with %d edges open", tgraph.ErrEdgeOutlives, ev.V, s.open)
		}
		s.closed, s.end = true, ev.T
	case AddEdge:
		if s, ok := lookup(sv.e, sv.baseE, ev.E); ok {
			if s.closed {
				return fmt.Errorf("%w: edge %d", ErrReopened, ev.E)
			}
			return fmt.Errorf("%w: edge %d", ErrStillOpen, ev.E)
		}
		src, okSrc := sv.alive(ev.Src, ev.T)
		dst, okDst := sv.alive(ev.Dst, ev.T)
		if !okSrc || !okDst {
			return fmt.Errorf("%w: edge %d endpoints at t=%d", ErrUnknownOwner, ev.E, ev.T)
		}
		sv.e[ev.E] = &openSpan{start: ev.T, ends: [2]tgraph.VertexID{ev.Src, ev.Dst}}
		src.open++
		dst.open++
	case RemoveEdge:
		s, ok := lookup(sv.e, sv.baseE, ev.E)
		if !ok || s.closed {
			return fmt.Errorf("%w: edge %d", ErrUnknownOwner, ev.E)
		}
		s.closed, s.end = true, ev.T
		for _, id := range s.ends {
			v, _ := lookup(sv.v, sv.baseV, id)
			v.open--
		}
	case SetVertexProp:
		if _, ok := sv.alive(ev.V, ev.T); !ok {
			return fmt.Errorf("%w: vertex %d", ErrUnknownOwner, ev.V)
		}
	case SetEdgeProp:
		if s, ok := lookup(sv.e, sv.baseE, ev.E); !ok || s.closed {
			return fmt.Errorf("%w: edge %d", ErrUnknownOwner, ev.E)
		}
	default:
		return fmt.Errorf("stream: unknown op %d", ev.Op)
	}
	return nil
}

// byLabel returns id's per-label map in m, creating it if absent.
func byLabel[K comparable, V any](m map[K]map[string]V, id K) map[string]V {
	p := m[id]
	if p == nil {
		p = map[string]V{}
		m[id] = p
	}
	return p
}

// setProp ends the label's running value at t (if any) and starts a new run.
func (a *Accumulator) setProp(runs map[string]propRun, sink map[string][]tgraph.PropEntry, label string, value int64, t ival.Time) {
	if run, ok := runs[label]; ok && run.start < t {
		sink[label] = append(sink[label], tgraph.PropEntry{Interval: ival.New(run.start, t), Value: run.value})
	}
	runs[label] = propRun{start: t, value: value}
}

// closeRuns flushes every running property value at the closing time.
func (a *Accumulator) closeRuns(runs map[string]propRun, sink map[string][]tgraph.PropEntry, t ival.Time) {
	labels := make([]string, 0, len(runs))
	for l := range runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		run := runs[l]
		if run.start < t {
			sink[l] = append(sink[l], tgraph.PropEntry{Interval: ival.New(run.start, t), Value: run.value})
		}
	}
}

// Graph materializes the accumulated state as a valid temporal graph.
// Entities still open are closed at the horizon when it is positive, or left
// unbounded when horizon is zero or negative; a positive horizon also cuts
// the entities closed past it.
func (a *Accumulator) Graph(horizon ival.Time) (*tgraph.Graph, error) {
	return a.materialize(nil, horizon, sortedKeys(a.vspans), sortedKeys(a.espans))
}

// Patch materializes the accumulated state as the epoch after prev: if prev
// is what the last Patch returned, at the same horizon, only the entities
// events touched since, patched onto prev (tgraph.Patch); for any other prev
// — nil, or a graph mapped off a snapshot, whose storage goes away with its
// last reader — Graph(horizon).
func (a *Accumulator) Patch(prev *tgraph.Graph, horizon ival.Time) (*tgraph.Graph, error) {
	vids, eids := sortedKeys(a.vdirty), sortedKeys(a.edirty)
	if prev == nil || prev != a.base || horizon != a.baseHorizon {
		prev, vids, eids = nil, sortedKeys(a.vspans), sortedKeys(a.espans)
	}
	clear(a.vdirty)
	clear(a.edirty)
	g, err := a.materialize(prev, horizon, vids, eids)
	a.base, a.baseHorizon = g, horizon
	return g, err
}

// materialize builds the given vertices and edges, by sorted id, from the
// accumulated state and patches them onto prev.
func (a *Accumulator) materialize(prev *tgraph.Graph, horizon ival.Time, vids []tgraph.VertexID, eids []tgraph.EdgeID) (*tgraph.Graph, error) {
	vs := make([]tgraph.Vertex, len(vids))
	for i, id := range vids {
		v := &vs[i]
		v.ID, v.Lifespan = id, lifespan(a.vspans[id], horizon)
		flushProps(a.vprops[id], a.vruns[id], v.Lifespan, v.Props.AddAll)
	}
	es := make([]tgraph.Edge, len(eids))
	for i, id := range eids {
		s, e := a.espans[id], &es[i]
		e.ID, e.Src, e.Dst, e.Lifespan = id, s.ends[0], s.ends[1], lifespan(s, horizon)
		flushProps(a.eprops[id], a.eruns[id], e.Lifespan, e.Props.AddAll)
	}
	return tgraph.Patch(prev, vs, es)
}

// lifespan materializes s: no end, open or closed, lies past a positive horizon.
func lifespan(s *openSpan, horizon ival.Time) ival.Interval {
	end := ival.Infinity
	if s.closed {
		end = s.end
	}
	if horizon > 0 {
		end = min(end, horizon)
	}
	return ival.New(s.start, end)
}

// flushProps hands set each non-empty label timeline clipped to life: the
// closed entries, already in time order, then the open run. Each timeline is
// a fresh exactly-sized slice the receiver keeps.
func flushProps(closed map[string][]tgraph.PropEntry, runs map[string]propRun, life ival.Interval,
	set func(label string, entries []tgraph.PropEntry)) {
	open := func(run propRun) (tgraph.PropEntry, bool) {
		x := ival.New(run.start, life.End).Intersect(life)
		return tgraph.PropEntry{Interval: x, Value: run.value}, !x.IsEmpty()
	}
	for label, entries := range closed {
		out := make([]tgraph.PropEntry, 0, len(entries)+1)
		for _, p := range entries {
			if x := p.Interval.Intersect(life); !x.IsEmpty() {
				out = append(out, tgraph.PropEntry{Interval: x, Value: p.Value})
			}
		}
		if run, ok := runs[label]; ok {
			if p, ok := open(run); ok {
				out = append(out, p)
			}
		}
		if len(out) > 0 {
			set(label, out)
		}
	}
	for label, run := range runs {
		if _, done := closed[label]; done {
			continue
		}
		if p, ok := open(run); ok {
			set(label, []tgraph.PropEntry{p})
		}
	}
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
	if ev.T < 0 {
		return Event{}, fmt.Errorf("%w: %d", ErrNegativeTime, ev.T)
	}
	return ev, nil
}
