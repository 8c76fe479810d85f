package bench

import (
	"fmt"
	"io"
	"math"

	"graphite/internal/obs"
	"graphite/internal/ref"
	"graphite/internal/stats"
	"graphite/internal/tgraph"
)

// Check is one cell of the platform table on one graph: a platform's answer
// to an algorithm compared with the algorithm's oracle — the paper's claim
// that every platform gives identical results (Sec. VII-B1), cell by cell.
type Check struct {
	Algo     Algo
	Platform Platform
	End      obs.RunEnd
	Compared int      // answers compared: per vertex, or per (vertex, time-point)
	Mismatch []string // the first maxMismatch disagreements
}

// maxMismatch keeps a failed cell's report readable.
const maxMismatch = 20

func (c *Check) expect(ok bool, format string, args ...any) {
	c.Compared++
	if !ok {
		c.fail(format, args...)
	}
}

func (c *Check) fail(format string, args ...any) {
	if len(c.Mismatch) < maxMismatch {
		c.Mismatch = append(c.Mismatch, fmt.Sprintf(format, args...))
	}
}

// Passed reports whether every comparison of the cell agreed.
func (c *Check) Passed() bool { return len(c.Mismatch) == 0 }

// Verify runs the algorithms (all twelve when none are named) on every
// platform that can run them and checks each cell against the oracle:
// per-vertex answers at every vertex, per-time-point answers wherever the
// vertex is alive, TMST's parents hop by hop, and the run's record
// (delivered ≤ sent; equal where no combiner runs).
func Verify(g *tgraph.Graph, cfg Config, algos ...Algo) ([]Check, error) {
	if len(algos) == 0 {
		algos = append(append([]Algo{}, TIAlgos...), TDAlgos...)
	}
	var out []Check
	for _, al := range algos {
		r, ok := table[al]
		if !ok {
			return nil, fmt.Errorf("bench: unknown algorithm %q", al)
		}
		want := r.oracle(g, cfg)
		for _, pl := range PlatformsFor(al) {
			got, err := run(cfg, pl, al, g)
			if err != nil {
				return nil, fmt.Errorf("bench: verify %s on %s: %w", al, pl, err)
			}
			out = append(out, compare(g, al, pl, want, got))
		}
	}
	return out, nil
}

// compare checks one platform's answer against the oracle's.
func compare(g *tgraph.Graph, al Algo, pl Platform, want, got *answer) Check {
	c := Check{Algo: al, Platform: pl, End: *got.End}
	// Only a combiner delivers fewer messages than were sent: GoFFish and
	// TGB's clustering protocol run none, TGB's path runs a min combiner.
	folds := pl != GOF && !(pl == TGB && (al == LCC || al == TC))
	if sent, delivered := c.End.Messages, c.End.Delivered; delivered > sent || delivered != sent && !folds {
		c.fail("run record: %d messages delivered of %d sent", delivered, sent)
	}
	src := g.IndexOf(source(g))
	for v := 0; v < g.NumVertices(); v++ {
		vert := g.VertexAt(v)
		// A tree has no arrival at its root.
		if want.Vertex != nil && got.Vertex != nil && !(got.Parent != nil && v == src) {
			w, x := want.Vertex(v), got.Vertex(v)
			c.expect(same(x, w), "v=%d: %v, oracle %v", vert.ID, x, w)
			if arrival, ok := w.(int64); got.Parent != nil && ok && arrival != ref.Unreachable {
				p := got.Parent(v)
				c.expect(hop(g, want.Vertex, p, vert.ID, arrival),
					"v=%d: no feasible hop from parent %d arriving at %d", vert.ID, p, arrival)
			}
		}
		if want.Point == nil || got.Point == nil {
			continue
		}
		for t := g.Lifespan().Start; t < g.Horizon(); t++ {
			if vert.Lifespan.Contains(t) {
				w, x := want.Point(v, t), got.Point(v, t)
				c.expect(same(x, w), "v=%d t=%d: %v, oracle %v", vert.ID, t, x, w)
			}
		}
	}
	return c
}

// same compares a platform's value with the oracle's: exactly, floats
// (PageRank) within 1e-9, and an LCC coefficient with the one the oracle's
// (closed wedges, out-degree) give.
func same(x, want any) bool {
	f, isFloat := x.(float64)
	switch w := want.(type) {
	case float64:
		return isFloat && math.Abs(f-w) <= 1e-9
	case [2]int64:
		if isFloat {
			closed, deg := w[0], w[1]
			return closed == 0 && f == 0 || deg >= 2 && math.Abs(f-float64(closed)/float64(deg*(deg-1))) <= 1e-12
		}
	}
	return x == want
}

// hop reports whether a journey can depart parent p at some d no earlier
// than p's earliest arrival, over an edge p→v alive at d, and arrive at
// exactly arrival.
func hop(g *tgraph.Graph, eat func(v int) any, p, v tgraph.VertexID, arrival int64) bool {
	pi := g.IndexOf(p)
	if pi < 0 || eat(pi) == ref.Unreachable {
		return false
	}
	from := eat(pi).(int64)
	for _, ei := range g.OutEdges(pi) {
		e := g.Edge(int(ei))
		if e.Dst != v {
			continue
		}
		for d := max(from, e.Lifespan.Start); d < e.Lifespan.End; d++ {
			tt, ok := e.Props.ValueAt(tgraph.PropTravelTime, d)
			_, priced := e.Props.ValueAt(tgraph.PropTravelCost, d)
			if ok && priced && d+tt == arrival {
				return true
			}
		}
	}
	return false
}

// RenderVerify prints the platform grid of one graph's checks: a row per
// algorithm, a column per platform (GRAPHITE, then the TI or TD pair), and
// each failed cell's disagreements below it.
func RenderVerify(w io.Writer, graph string, checks []Check) {
	t := stats.Table{Header: []string{"Algo", "GRAPHITE", "MSB/TGB", "Chlonos/GoFFish"}}
	var rowCells []any
	for i, c := range checks {
		if i == 0 || c.Algo != checks[i-1].Algo {
			if rowCells != nil {
				t.Add(rowCells...)
			}
			rowCells = []any{c.Algo}
		}
		status := "ok"
		if !c.Passed() {
			status = "MISMATCH"
		}
		rowCells = append(rowCells, fmt.Sprintf("%s %d", status, c.Compared))
	}
	if rowCells != nil {
		t.Add(rowCells...)
	}
	fmt.Fprintf(w, "Platforms vs oracles on %s (answers compared per cell)\n", graph)
	t.Render(w)
	for _, c := range checks {
		for _, m := range c.Mismatch {
			fmt.Fprintf(w, "  %s %s: %s\n", c.Algo, c.Platform, m)
		}
	}
}
