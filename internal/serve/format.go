package serve

import (
	"fmt"
	"strconv"

	"graphite/internal/core"
)

// This file is the single definition of the canonical per-part rendering:
// an interval appends through ival.Interval.Append and a value through
// appendValue, into a cmd/graphite-run line (FormatResult) or, quoted, into a
// served body (render.go), which FormatLines reads back into the same lines.

// appendValue appends one state value exactly as fmt's %v renders it, without
// fmt's reflection for the types the shipped algorithms keep as state; quoted,
// as encoding/json quotes that string. A number or bool needs no escaping.
func appendValue(b []byte, v any, quoted bool) []byte {
	var s string
	switch x := v.(type) {
	case int64:
		return quote(strconv.AppendInt(quote(b, quoted), x, 10), quoted)
	case float64:
		return quote(strconv.AppendFloat(quote(b, quoted), x, 'g', -1, 64), quoted)
	case bool:
		return quote(strconv.AppendBool(quote(b, quoted), x), quoted)
	case string:
		s = x
	default:
		s = fmt.Sprint(v)
	}
	if quoted {
		return appendString(b, s)
	}
	return append(b, s...)
}

func quote(b []byte, quoted bool) []byte {
	if quoted {
		return append(b, '"')
	}
	return b
}

// FormatResult renders a run's final per-vertex states exactly as
// cmd/graphite-run prints them: one "vertex <id>: <interval>=<value> ..."
// line per vertex the run kept, ids ascending, at most top lines when top > 0.
func FormatResult(r *core.Result, top int) []string {
	lines := make([]string, 0, r.Graph.NumVertices())
	var b []byte
	for v, st := range r.ByID() {
		if top > 0 && len(lines) == top {
			break
		}
		b = append(strconv.AppendInt(append(b[:0], "vertex "...), int64(v.ID), 10), ": "...)
		for i, p := range st.Parts() {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendValue(append(p.Interval.Append(b), '='), p.Value, false)
		}
		lines = append(lines, string(b))
	}
	return lines
}

// buildResult shapes a finished core run into the wire result, rendering its
// vertices array once.
func buildResult(p *prepared, r *core.Result) *RunResult {
	return &RunResult{
		Graph:       p.graphName,
		Algorithm:   p.algo,
		Fingerprint: p.fp,
		Window:      windowLabel(p.window),
		Span:        p.span,
		Epoch:       p.eff,
		Metrics: RunMetrics{
			Supersteps:      r.Metrics.Supersteps,
			ComputeCalls:    r.Metrics.ComputeCalls,
			ScatterCalls:    r.Metrics.ScatterCalls,
			Messages:        r.Metrics.Messages,
			MessageBytes:    r.Metrics.MessageBytes,
			MakespanNS:      r.Metrics.MakespanNS,
			WarpCalls:       r.Stats.WarpCalls,
			WarpSuppressed:  r.Stats.WarpSuppressed,
			ActiveIntervals: r.Stats.ActiveIntervals,
		},
		Vertices: renderVertices(r.ByID()),
	}
}

// FormatLines reconstructs the cmd/graphite-run rendering from a served
// result: identical to FormatResult over the same run. Vertices that do not
// decode, which only a damaged client copy can hold, give one line naming
// the error, which matches no line of the CLI's.
func (r *RunResult) FormatLines(top int) []string {
	vs, err := r.Vertices.Decode()
	if err != nil {
		return []string{"vertices: " + err.Error()}
	}
	if top > 0 && len(vs) > top {
		vs = vs[:top]
	}
	lines := make([]string, 0, len(vs))
	var b []byte
	for _, v := range vs {
		b = append(strconv.AppendInt(append(b[:0], "vertex "...), v.ID, 10), ": "...)
		for i, p := range v.Parts {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(append(append(b, p.Interval...), '='), p.Value...)
		}
		lines = append(lines, string(b))
	}
	return lines
}
