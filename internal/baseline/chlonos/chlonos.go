// Package chlonos implements the Chlonos baseline of Sec. VII-A3, a clone
// of Chronos [4]: a batch of snapshots is loaded into one vectorized
// in-memory layout and executed together. The user compute logic still runs
// once per (vertex, snapshot) — computation is NOT shared — but when a
// vertex pushes identical messages to the same sink for adjacent snapshots
// of the batch, they are replaced by a single interval message, saving
// network time and memory. The batch size models the paper's memory limits
// (e.g. Twitter fit only 6 snapshots per batch).
package chlonos

import (
	"graphite/internal/baseline/valgo"
	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
	"graphite/internal/vcm"
	"graphite/internal/warp"
)

// Result holds per-snapshot vertex states and accumulated metrics.
type Result struct {
	Graph   *tgraph.Graph
	Metrics obs.RunEnd
	Batches int
	states  map[ival.Time][]any
}

// State returns the final state of vertex index v in the snapshot at t.
func (r *Result) State(v int, t ival.Time) any {
	s, ok := r.states[t]
	if !ok {
		return nil
	}
	return s[v]
}

// Run executes the spec over the graph in batches of batchSize snapshots.
func Run(g *tgraph.Graph, spec valgo.Spec, batchSize, workers int) (*Result, error) {
	if batchSize < 1 {
		batchSize = 1
	}
	out := &Result{Graph: g, states: map[ival.Time][]any{}}
	for b := g.Lifespan().Start; b < g.Horizon(); b += ival.Time(batchSize) {
		end := b + ival.Time(batchSize)
		if end > g.Horizon() {
			end = g.Horizon()
		}
		batchSpec := valgo.Fresh(spec)
		rt := &batchRuntime{
			g:     g,
			prog:  batchSpec.Program,
			batch: ival.New(b, end),
			aa:    batchSpec.Options.ActivateAll,
		}
		rt.states = make([][]any, g.NumVertices())
		for v := range rt.states {
			rt.states[v] = make([]any, end-b)
		}
		cfg := engine.Config{
			NumWorkers:    workers,
			MaxSupersteps: batchSpec.Options.MaxSupersteps,
			ActivateAll:   batchSpec.Options.ActivateAll,
			PayloadCodec:  batchSpec.Options.PayloadCodec,
			Aggregators:   batchSpec.Options.Aggregators,
			Master:        batchSpec.Options.Master,
			Combiner:      batchSpec.Options.Combine,
		}
		eng, err := engine.New(g.NumVertices(), rt, cfg)
		if err != nil {
			return nil, err
		}
		m, err := eng.Run()
		if err != nil {
			return nil, err
		}
		out.Metrics.Add(*m)
		out.Batches++
		for t := b; t < end; t++ {
			col := make([]any, g.NumVertices())
			for v := range col {
				col[v] = rt.states[v][t-b]
			}
			out.states[t] = col
		}
	}
	return out, nil
}

// send is one buffered per-snapshot message emission.
type send struct {
	dst int
	t   ival.Time
	val any
}

// batchRuntime vectorizes one batch of snapshots into a single engine run.
type batchRuntime struct {
	g      *tgraph.Graph
	prog   vcm.Program
	batch  ival.Interval
	aa     bool    // ActivateAll: message-less snapshots still compute
	states [][]any // [vertex][t - batch.Start]
}

// Init implements engine.Program.
func (rt *batchRuntime) Init(ctx *engine.Context) {}

// Run implements engine.Program: expand interval messages per snapshot,
// invoke the user logic per (vertex, snapshot), then fuse adjacent-snapshot
// duplicate sends into interval messages.
func (rt *batchRuntime) Run(ctx *engine.Context, msgs []engine.Message) {
	v := ctx.Vertex()
	life := rt.g.VertexAt(v).Lifespan
	c := batchCtx{rt: rt, eng: ctx, idx: v}
	// Expand interval messages into per-snapshot buckets in one pass.
	var buckets [][]any
	if len(msgs) > 0 {
		buckets = make([][]any, rt.batch.End-rt.batch.Start)
		for _, m := range msgs {
			x, val := m.When.Intersect(rt.batch), ctx.Payload(m)
			for t := x.Start; t < x.End; t++ {
				buckets[t-rt.batch.Start] = append(buckets[t-rt.batch.Start], val)
			}
		}
	}
	for t := rt.batch.Start; t < rt.batch.End; t++ {
		if !life.Contains(t) {
			continue
		}
		c.t = t
		if ctx.Superstep() == 1 {
			ctx.AddComputeCalls(1)
			rt.prog.Init(&c)
			continue
		}
		var vals []any
		if buckets != nil {
			vals = buckets[t-rt.batch.Start]
		}
		if len(vals) == 0 && !rt.activateAll() {
			continue
		}
		ctx.AddComputeCalls(1)
		rt.prog.Compute(&c, vals)
	}
	rt.flush(ctx, c.buf)
}

// activateAll reports whether message-less snapshots still compute; the
// engine only invokes Run for inactive vertices under ActivateAll, so the
// per-snapshot decision mirrors it.
func (rt *batchRuntime) activateAll() bool { return rt.aa }

// flush groups buffered sends by sink and value, fusing runs of adjacent
// snapshots into single interval messages (the Chronos message-sharing
// optimization).
func (rt *batchRuntime) flush(ctx *engine.Context, buf []send) {
	if len(buf) == 0 {
		return
	}
	// Bucket by sink in first-seen order, preserving the ascending-t
	// emission order within each bucket (the outer compute loop visits
	// snapshots in time order).
	counts := map[int]int{}
	for _, sd := range buf {
		counts[sd.dst]++
	}
	offs := make(map[int]int, len(counts))
	var order []int
	pos := 0
	for _, sd := range buf {
		if _, ok := offs[sd.dst]; !ok {
			offs[sd.dst] = pos
			pos += counts[sd.dst]
			order = append(order, sd.dst)
		}
	}
	ordered := make([]send, len(buf))
	fill := make(map[int]int, len(counts))
	for _, sd := range buf {
		ordered[offs[sd.dst]+fill[sd.dst]] = sd
		fill[sd.dst]++
	}
	for _, d := range order {
		rt.flushDst(ctx, ordered[offs[d]:offs[d]+counts[d]])
	}
}

// flushDst fuses one sink's sends: for each distinct value, maximal runs of
// consecutive snapshots become one message; duplicate emissions at the same
// snapshot (multi-edges) are preserved as separate layers.
func (rt *batchRuntime) flushDst(ctx *engine.Context, sends []send) {
	used := make([]bool, len(sends))
	for i := range sends {
		if used[i] {
			continue
		}
		// Collect all unused sends with this value, in time order.
		var idxs []int
		for j := i; j < len(sends); j++ {
			if !used[j] && warp.ValueEqual(sends[j].val, sends[i].val) {
				idxs = append(idxs, j)
			}
		}
		// Peel consecutive-run layers until all occurrences are sent.
		for len(idxs) > 0 {
			var rest []int
			runStart := sends[idxs[0]].t
			prev := runStart
			used[idxs[0]] = true
			for _, j := range idxs[1:] {
				t := sends[j].t
				switch {
				case t == prev:
					rest = append(rest, j) // duplicate at same t: next layer
				case t == prev+1:
					prev = t
					used[j] = true
				default:
					ctx.Send(sends[idxs[0]].dst, ival.New(runStart, prev+1), sends[i].val)
					runStart, prev = t, t
					used[j] = true
				}
			}
			ctx.Send(sends[idxs[0]].dst, ival.New(runStart, prev+1), sends[i].val)
			idxs = rest
		}
	}
}

// batchCtx is the per-(vertex, snapshot) Ctx for a batch run.
type batchCtx struct {
	rt  *batchRuntime
	eng *engine.Context
	idx int
	t   ival.Time
	buf []send
}

func (c *batchCtx) Vertex() int         { return c.idx }
func (c *batchCtx) ID() tgraph.VertexID { return c.rt.g.VertexAt(c.idx).ID }
func (c *batchCtx) Superstep() int      { return c.eng.Superstep() }
func (c *batchCtx) Phase() int          { return c.eng.Phase() }
func (c *batchCtx) Time() ival.Time     { return c.t }
func (c *batchCtx) NumVertices() int    { return c.rt.g.NumVertices() }

func (c *batchCtx) State() any {
	return c.rt.states[c.idx][c.t-c.rt.batch.Start]
}

func (c *batchCtx) SetState(v any) {
	c.rt.states[c.idx][c.t-c.rt.batch.Start] = v
}

func (c *batchCtx) OutEdges(fn func(e *tgraph.Edge, dst int)) {
	c.rt.g.SnapshotAt(c.t).OutEdgesIdx(c.idx, fn)
}

func (c *batchCtx) InEdges(fn func(e *tgraph.Edge, src int)) {
	c.rt.g.SnapshotAt(c.t).InEdgesIdx(c.idx, fn)
}

func (c *batchCtx) OutEdgesSimple(fn func(dst int)) {
	c.OutEdges(func(_ *tgraph.Edge, dst int) { fn(dst) })
}

func (c *batchCtx) InEdgesSimple(fn func(src int)) {
	c.InEdges(func(_ *tgraph.Edge, src int) { fn(src) })
}

func (c *batchCtx) OutDegree() int { return c.rt.g.OutDegreeAt(c.idx, c.t) }

func (c *batchCtx) Send(dst int, value any) {
	c.buf = append(c.buf, send{dst: dst, t: c.t, val: value})
}

func (c *batchCtx) Aggregate(name string, v codec.Word) { c.eng.Aggregate(name, v) }
