package serve

import (
	"errors"
	"fmt"

	ival "graphite/internal/interval"
	"graphite/internal/live"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// opNames maps the wire op mnemonics — the same ones the text event-log
// format uses (stream.ReadLog) — onto stream ops.
var opNames = map[string]stream.Op{
	"av": stream.AddVertex,
	"rv": stream.RemoveVertex,
	"ae": stream.AddEdge,
	"re": stream.RemoveEdge,
	"vp": stream.SetVertexProp,
	"ep": stream.SetEdgeProp,
}

// DecodeEvents converts wire events into stream events. Only op names are
// validated here; batch semantics (ordering, referential integrity,
// atomicity) are the live graph's preflight.
func DecodeEvents(evs []EventWire) ([]stream.Event, error) {
	batch := make([]stream.Event, len(evs))
	for i, w := range evs {
		op, ok := opNames[w.Op]
		if !ok {
			return nil, fmt.Errorf("%w: event %d: unknown op %q (have av rv ae re vp ep)",
				ErrBadRequest, i, w.Op)
		}
		batch[i] = stream.Event{
			Op:    op,
			T:     ival.Time(w.T),
			V:     tgraph.VertexID(w.V),
			E:     tgraph.EdgeID(w.E),
			Src:   tgraph.VertexID(w.Src),
			Dst:   tgraph.VertexID(w.Dst),
			Label: w.Label,
			Value: w.Value,
		}
	}
	return batch, nil
}

// EncodeEvents is DecodeEvents' inverse; cmd/graphite-feed ships parsed
// event-log lines through it.
func EncodeEvents(batch []stream.Event) []EventWire {
	out := make([]EventWire, len(batch))
	for i, ev := range batch {
		w := EventWire{T: int64(ev.T)}
		switch ev.Op {
		case stream.AddVertex:
			w.Op, w.V = "av", int64(ev.V)
		case stream.RemoveVertex:
			w.Op, w.V = "rv", int64(ev.V)
		case stream.AddEdge:
			w.Op, w.E, w.Src, w.Dst = "ae", int64(ev.E), int64(ev.Src), int64(ev.Dst)
		case stream.RemoveEdge:
			w.Op, w.E = "re", int64(ev.E)
		case stream.SetVertexProp:
			w.Op, w.V, w.Label, w.Value = "vp", int64(ev.V), ev.Label, ev.Value
		case stream.SetEdgeProp:
			w.Op, w.E, w.Label, w.Value = "ep", int64(ev.E), ev.Label, ev.Value
		}
		out[i] = w
	}
	return out
}

// ApplyEvents ingests one atomic mutation batch into the named live graph
// and returns the newly published epoch's summary. Bad batches — unknown
// ops, time-order violations, referential breaks — reject as ErrBadRequest
// with the graph unchanged; mutating a static graph is also a bad request.
func (s *Server) ApplyEvents(name string, evs []EventWire) (*EventsResult, error) {
	lg := s.liveGraphs[name]
	if lg == nil {
		if _, ok := s.graphs[name]; ok {
			return nil, fmt.Errorf("%w: graph %q is static — it has no event log", ErrBadRequest, name)
		}
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownGraph, name, s.names)
	}
	if s.Draining() {
		s.m.rejectedDraining.Inc()
		return nil, ErrDraining
	}
	batch, err := DecodeEvents(evs)
	if err != nil {
		return nil, err
	}
	info, err := lg.Apply(batch)
	if err != nil {
		switch {
		case errors.Is(err, live.ErrEmptyBatch),
			errors.Is(err, stream.ErrOutOfOrder),
			errors.Is(err, stream.ErrTimeRange),
			errors.Is(err, stream.ErrReopened),
			errors.Is(err, stream.ErrStillOpen),
			errors.Is(err, stream.ErrUnknownOwner),
			errors.Is(err, tgraph.ErrEdgeOutlives):
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		case errors.Is(err, live.ErrClosed):
			return nil, fmt.Errorf("%w: %v", ErrDraining, err)
		}
		return nil, err
	}
	return &EventsResult{Graph: name, Info: info}, nil
}
