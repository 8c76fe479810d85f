// Package stream builds temporal property graphs from event logs — the form
// real temporal datasets arrive in (contact traces, transaction logs, edit
// histories). An Accumulator consumes ordered events (vertex/edge appear,
// disappear, property changes) and materializes the interval graph the ICM
// runtime consumes; lifespans are derived from appear/disappear pairs, with
// still-open entities closed at a configurable horizon or left unbounded.
//
// This is the ingestion half of the paper's "streaming temporal graphs"
// future work: it turns a prefix of an event stream into a fully evolved
// graph at any cut-off point.
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
	etails map[tgraph.EdgeID][2]tgraph.VertexID

	vprops map[tgraph.VertexID]map[string][]tgraph.PropEntry
	eprops map[tgraph.EdgeID]map[string][]tgraph.PropEntry
	vruns  map[tgraph.VertexID]map[string]propRun
	eruns  map[tgraph.EdgeID]map[string]propRun

	events int
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		vspans: map[tgraph.VertexID]*openSpan{},
		espans: map[tgraph.EdgeID]*openSpan{},
		etails: map[tgraph.EdgeID][2]tgraph.VertexID{},
		vprops: map[tgraph.VertexID]map[string][]tgraph.PropEntry{},
		eprops: map[tgraph.EdgeID]map[string][]tgraph.PropEntry{},
		vruns:  map[tgraph.VertexID]map[string]propRun{},
		eruns:  map[tgraph.EdgeID]map[string]propRun{},
	}
}

// Events returns the number of events applied.
func (a *Accumulator) Events() int { return a.events }

// Now returns the time of the last applied event.
func (a *Accumulator) Now() ival.Time { return a.now }

// Apply folds one event into the accumulator. Events must arrive in
// non-decreasing time order.
func (a *Accumulator) Apply(ev Event) error {
	if ev.T < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeTime, ev.T)
	}
	if ev.T < a.now {
		return fmt.Errorf("%w: event at %d after %d", ErrOutOfOrder, ev.T, a.now)
	}
	a.now = ev.T
	switch ev.Op {
	case AddVertex:
		if s, ok := a.vspans[ev.V]; ok {
			if s.closed {
				return fmt.Errorf("%w: vertex %d", ErrReopened, ev.V)
			}
			return fmt.Errorf("%w: vertex %d", ErrStillOpen, ev.V)
		}
		a.vspans[ev.V] = &openSpan{start: ev.T}
	case RemoveVertex:
		s, ok := a.vspans[ev.V]
		if !ok || s.closed {
			return fmt.Errorf("%w: vertex %d", ErrUnknownOwner, ev.V)
		}
		s.closed, s.end = true, ev.T
		a.closeRuns(a.vruns[ev.V], a.propsOf(a.vprops, ev.V), ev.T)
		delete(a.vruns, ev.V)
	case AddEdge:
		if s, ok := a.espans[ev.E]; ok {
			if s.closed {
				return fmt.Errorf("%w: edge %d", ErrReopened, ev.E)
			}
			return fmt.Errorf("%w: edge %d", ErrStillOpen, ev.E)
		}
		if !a.vertexAlive(ev.Src, ev.T) || !a.vertexAlive(ev.Dst, ev.T) {
			return fmt.Errorf("%w: edge %d endpoints at t=%d", ErrUnknownOwner, ev.E, ev.T)
		}
		a.espans[ev.E] = &openSpan{start: ev.T}
		a.etails[ev.E] = [2]tgraph.VertexID{ev.Src, ev.Dst}
	case RemoveEdge:
		s, ok := a.espans[ev.E]
		if !ok || s.closed {
			return fmt.Errorf("%w: edge %d", ErrUnknownOwner, ev.E)
		}
		s.closed, s.end = true, ev.T
		a.closeRuns(a.eruns[ev.E], a.epropsOf(ev.E), ev.T)
		delete(a.eruns, ev.E)
	case SetVertexProp:
		if !a.vertexAlive(ev.V, ev.T) {
			return fmt.Errorf("%w: vertex %d", ErrUnknownOwner, ev.V)
		}
		runs := a.vruns[ev.V]
		if runs == nil {
			runs = map[string]propRun{}
			a.vruns[ev.V] = runs
		}
		a.setProp(runs, a.propsOf(a.vprops, ev.V), ev.Label, ev.Value, ev.T)
	case SetEdgeProp:
		s, ok := a.espans[ev.E]
		if !ok || s.closed {
			return fmt.Errorf("%w: edge %d", ErrUnknownOwner, ev.E)
		}
		runs := a.eruns[ev.E]
		if runs == nil {
			runs = map[string]propRun{}
			a.eruns[ev.E] = runs
		}
		a.setProp(runs, a.epropsOf(ev.E), ev.Label, ev.Value, ev.T)
	default:
		return fmt.Errorf("stream: unknown op %d", ev.Op)
	}
	a.events++
	return nil
}

// Preflight validates a whole batch against the accumulator's current state
// without mutating it, so callers can make ingest batch-atomic: either every
// event in the batch would be accepted by Apply, or the batch is rejected
// with the index of the first offending event and nothing changes. The
// checks mirror Apply's exactly (order, negative time, reopen/still-open,
// referential integrity); property contents need no validation beyond an
// alive owner.
func (a *Accumulator) Preflight(batch []Event) error {
	now := a.now
	vs := map[tgraph.VertexID]openSpan{}
	es := map[tgraph.EdgeID]openSpan{}
	vspan := func(id tgraph.VertexID) (openSpan, bool) {
		if s, ok := vs[id]; ok {
			return s, true
		}
		if s, ok := a.vspans[id]; ok {
			return *s, true
		}
		return openSpan{}, false
	}
	espan := func(id tgraph.EdgeID) (openSpan, bool) {
		if s, ok := es[id]; ok {
			return s, true
		}
		if s, ok := a.espans[id]; ok {
			return *s, true
		}
		return openSpan{}, false
	}
	alive := func(id tgraph.VertexID, t ival.Time) bool {
		s, ok := vspan(id)
		return ok && !s.closed && s.start <= t
	}
	for i, ev := range batch {
		fail := func(err error) error { return fmt.Errorf("stream: batch event %d: %w", i, err) }
		if ev.T < 0 {
			return fail(fmt.Errorf("%w: %d", ErrNegativeTime, ev.T))
		}
		if ev.T < now {
			return fail(fmt.Errorf("%w: event at %d after %d", ErrOutOfOrder, ev.T, now))
		}
		now = ev.T
		switch ev.Op {
		case AddVertex:
			if s, ok := vspan(ev.V); ok {
				if s.closed {
					return fail(fmt.Errorf("%w: vertex %d", ErrReopened, ev.V))
				}
				return fail(fmt.Errorf("%w: vertex %d", ErrStillOpen, ev.V))
			}
			vs[ev.V] = openSpan{start: ev.T}
		case RemoveVertex:
			s, ok := vspan(ev.V)
			if !ok || s.closed {
				return fail(fmt.Errorf("%w: vertex %d", ErrUnknownOwner, ev.V))
			}
			s.closed, s.end = true, ev.T
			vs[ev.V] = s
		case AddEdge:
			if s, ok := espan(ev.E); ok {
				if s.closed {
					return fail(fmt.Errorf("%w: edge %d", ErrReopened, ev.E))
				}
				return fail(fmt.Errorf("%w: edge %d", ErrStillOpen, ev.E))
			}
			if !alive(ev.Src, ev.T) || !alive(ev.Dst, ev.T) {
				return fail(fmt.Errorf("%w: edge %d endpoints at t=%d", ErrUnknownOwner, ev.E, ev.T))
			}
			es[ev.E] = openSpan{start: ev.T}
		case RemoveEdge:
			s, ok := espan(ev.E)
			if !ok || s.closed {
				return fail(fmt.Errorf("%w: edge %d", ErrUnknownOwner, ev.E))
			}
			s.closed, s.end = true, ev.T
			es[ev.E] = s
		case SetVertexProp:
			if !alive(ev.V, ev.T) {
				return fail(fmt.Errorf("%w: vertex %d", ErrUnknownOwner, ev.V))
			}
		case SetEdgeProp:
			s, ok := espan(ev.E)
			if !ok || s.closed {
				return fail(fmt.Errorf("%w: edge %d", ErrUnknownOwner, ev.E))
			}
		default:
			return fail(fmt.Errorf("stream: unknown op %d", ev.Op))
		}
	}
	return nil
}

func (a *Accumulator) vertexAlive(id tgraph.VertexID, t ival.Time) bool {
	s, ok := a.vspans[id]
	return ok && !s.closed && s.start <= t
}

func (a *Accumulator) propsOf(m map[tgraph.VertexID]map[string][]tgraph.PropEntry, id tgraph.VertexID) map[string][]tgraph.PropEntry {
	p := m[id]
	if p == nil {
		p = map[string][]tgraph.PropEntry{}
		m[id] = p
	}
	return p
}

func (a *Accumulator) epropsOf(id tgraph.EdgeID) map[string][]tgraph.PropEntry {
	p := a.eprops[id]
	if p == nil {
		p = map[string][]tgraph.PropEntry{}
		a.eprops[id] = p
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
// unbounded when horizon is zero or negative.
func (a *Accumulator) Graph(horizon ival.Time) (*tgraph.Graph, error) {
	end := func(s *openSpan) ival.Time {
		if s.closed {
			return s.end
		}
		if horizon > 0 {
			return horizon
		}
		return ival.Infinity
	}
	b := tgraph.NewBuilder(len(a.vspans), len(a.espans))
	// Deterministic order: sorted ids.
	vids := make([]tgraph.VertexID, 0, len(a.vspans))
	for id := range a.vspans {
		vids = append(vids, id)
	}
	slices.Sort(vids)
	for _, id := range vids {
		s := a.vspans[id]
		life := ival.New(s.start, end(s))
		if life.IsEmpty() {
			continue
		}
		b.AddVertex(id, life)
		flushProps(a.vprops[id], a.vruns[id], life, func(label string, entries []tgraph.PropEntry) {
			b.SetVertexProps(id, label, entries)
		})
	}
	eids := make([]tgraph.EdgeID, 0, len(a.espans))
	for id := range a.espans {
		eids = append(eids, id)
	}
	slices.Sort(eids)
	for _, id := range eids {
		s := a.espans[id]
		life := ival.New(s.start, end(s))
		if life.IsEmpty() {
			continue
		}
		tails := a.etails[id]
		b.AddEdge(id, tails[0], tails[1], life)
		flushProps(a.eprops[id], a.eruns[id], life, func(label string, entries []tgraph.PropEntry) {
			b.SetEdgeProps(id, label, entries)
		})
	}
	return b.Build()
}

// flushProps hands set each label's timeline clipped to life: the closed
// entries, already in time order, then the open run. Each timeline is a fresh
// exactly-sized slice the builder keeps.
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
		set(label, out)
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
