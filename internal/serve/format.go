package serve

import (
	"fmt"
	"strconv"
	"strings"

	"graphite/internal/core"
)

// This file is the single definition of the canonical per-vertex result
// rendering. cmd/graphite-run prints through FormatResult and the server
// ships the same strings inside RunResult, so a served result reconstructs
// the CLI's output bit for bit — the property the serving tests pin down.

// formatValue renders one state value exactly as fmt's %v does, without
// fmt's reflection for the types the shipped algorithms keep as state.
func formatValue(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	}
	return fmt.Sprintf("%v", v)
}

// FormatResult renders a run's final per-vertex states exactly as
// cmd/graphite-run prints them: one "vertex <id>: <interval>=<value> ..."
// line per vertex the run kept, ids ascending, at most top lines when top > 0.
func FormatResult(r *core.Result, top int) []string {
	lines := make([]string, 0, r.Graph.NumVertices())
	for v, st := range r.ByID() {
		if top > 0 && len(lines) == top {
			break
		}
		parts := make([]string, 0, st.NumParts())
		for _, p := range st.Parts() {
			parts = append(parts, p.Interval.String()+"="+formatValue(p.Value))
		}
		lines = append(lines, fmt.Sprintf("vertex %d: %s", v.ID, strings.Join(parts, " ")))
	}
	return lines
}

// buildResult shapes a finished core run into the wire result. Interval and
// value strings are rendered as FormatResult renders them so FormatLines
// round-trips exactly.
func buildResult(p *prepared, r *core.Result) *RunResult {
	res := &RunResult{
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
			MakespanNS:      int64(r.Metrics.Makespan),
			WarpCalls:       r.Stats.WarpCalls,
			WarpSuppressed:  r.Stats.WarpSuppressed,
			ActiveIntervals: r.Stats.ActiveIntervals,
		},
	}
	for vertex, st := range r.ByID() {
		v := VertexResult{ID: int64(vertex.ID), Parts: make([]StatePart, 0, st.NumParts())}
		for _, part := range st.Parts() {
			v.Parts = append(v.Parts, StatePart{
				Interval: part.Interval.String(),
				Value:    formatValue(part.Value),
			})
		}
		res.Vertices = append(res.Vertices, v)
	}
	return res
}

// FormatLines reconstructs the cmd/graphite-run rendering from a served
// result: identical to FormatResult over the same run.
func (r *RunResult) FormatLines(top int) []string {
	vs := r.Vertices
	if top > 0 && len(vs) > top {
		vs = vs[:top]
	}
	lines := make([]string, 0, len(vs))
	for _, v := range vs {
		parts := make([]string, 0, len(v.Parts))
		for _, p := range v.Parts {
			parts = append(parts, p.Interval+"="+p.Value)
		}
		lines = append(lines, fmt.Sprintf("vertex %d: %s", v.ID, strings.Join(parts, " ")))
	}
	return lines
}
