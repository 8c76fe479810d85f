package core

import (
	"errors"
	"slices"
	"testing"

	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// chain builds a 3-vertex path graph a->b->c alive over [0,10).
func chain(t *testing.T) *tgraph.Graph {
	t.Helper()
	b := tgraph.NewBuilder(3, 2)
	b.AddVertex(0, ival.New(0, 10))
	b.AddVertex(1, ival.New(0, 10))
	b.AddVertex(2, ival.New(0, 10))
	b.AddEdge(0, 0, 1, ival.New(0, 10))
	b.AddEdge(1, 1, 2, ival.New(2, 8))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// floodProgram propagates a token over the overlap intervals.
type floodProgram struct {
	badWrite  bool // write outside the compute interval (failure injection)
	emitEarly bool // call Emit outside scatter (failure injection)
}

func (p *floodProgram) Init(v *VertexCtx) {
	v.SetState(v.Lifespan(), int64(0))
}

func (p *floodProgram) Compute(v *VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if p.emitEarly {
		v.Emit(t, codec.IntWord(1))
		return
	}
	if v.Superstep() == 1 {
		if v.ID() == 0 {
			v.SetState(t, int64(1))
		}
		return
	}
	if p.badWrite {
		// Deliberately write outside the active interval.
		v.SetState(v.Lifespan(), int64(1))
		return
	}
	if state.(int64) == 0 && len(msgs) > 0 {
		v.SetState(t, int64(1))
	}
}

func (p *floodProgram) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	return []OutMsg{{Value: codec.IntWord(state.(int64))}}
}

func TestRuntimeFloodInheritsIntervals(t *testing.T) {
	g := chain(t)
	r, err := Run(g, &floodProgram{}, Options{NumWorkers: 2, CheckInvariants: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Vertex 1 receives token over edge 0's lifespan [0,10).
	if v, _ := r.State(1).Get(5); v.(int64) != 1 {
		t.Errorf("vertex 1 not flooded: %v", r.State(1).Parts())
	}
	// Vertex 2 only over edge 1's lifespan [2,8).
	st := r.State(2)
	if v, _ := st.Get(5); v.(int64) != 1 {
		t.Errorf("vertex 2 not flooded at 5: %v", st.Parts())
	}
	if v, _ := st.Get(1); v.(int64) != 0 {
		t.Errorf("vertex 2 flooded outside edge lifespan at 1: %v", st.Parts())
	}
	if v, _ := st.Get(9); v.(int64) != 0 {
		t.Errorf("vertex 2 flooded outside edge lifespan at 9: %v", st.Parts())
	}
}

func TestRuntimeRejectsOutOfIntervalWrites(t *testing.T) {
	g := chain(t)
	_, err := Run(g, &floodProgram{badWrite: true}, Options{NumWorkers: 1})
	if !errors.Is(err, ErrStateOutOfRange) {
		t.Fatalf("want ErrStateOutOfRange, got %v", err)
	}
}

// TestProgramErrorEndsItsSuperstep: an error the runtime reports — here a
// SetState outside the compute interval, which vertex 2 first makes at
// superstep 3, when its message covers only part of its lifespan — ends the
// superstep it happened in, in Run as in a stepped Shard: Run returns it, and
// no later superstep closes.
func TestProgramErrorEndsItsSuperstep(t *testing.T) {
	const failing = 3
	g := chain(t)
	for workers := 1; workers <= 3; workers++ {
		opts := Options{NumWorkers: workers, ActivateAll: true, MaxSupersteps: 40, PayloadCodec: codec.Int64{}}
		rec := &obs.Recorder{}
		o := opts
		o.Tracer = rec
		_, err := Run(g, &floodProgram{badWrite: true}, o)
		if !errors.Is(err, ErrStateOutOfRange) {
			t.Fatalf("%d workers: want ErrStateOutOfRange, got %v", workers, err)
		}
		last, closed := 0, 0
		for _, ev := range rec.Events() {
			switch ev := ev.(type) {
			case obs.SuperstepStart:
				last = ev.Superstep
			case obs.SuperstepEnd:
				if ev.Superstep >= failing {
					closed++
				}
			}
		}
		if closed != 0 {
			t.Errorf("%d workers: %d supersteps closed at or after superstep %d, which failed", workers, closed, failing)
		}
		if last != failing {
			t.Errorf("%d workers: the last superstep started is %d, want %d", workers, last, failing)
		}

		shards := make([]*Shard, workers)
		for i := range shards {
			var err error
			if shards[i], err = NewShard(g, &floodProgram{badWrite: true}, opts, i); err != nil {
				t.Fatal(err)
			}
			defer shards[i].Close()
			if err := shards[i].Init(); err != nil {
				t.Fatal(err)
			}
		}
		b, err := NewBarrier(opts, 0)
		if err != nil {
			t.Fatal(err)
		}
	steps:
		for step := 1; b.Open(step); step++ {
			outs := make([][][]byte, workers)
			for i, s := range shards {
				if err := s.Compute(); err != nil {
					if !errors.Is(err, ErrStateOutOfRange) || step != failing {
						t.Errorf("%d workers: shard %d failed at superstep %d with %v, want ErrStateOutOfRange at %d",
							workers, i, step, err, failing)
					}
					break steps
				}
				if outs[i], err = s.Outbound(); err != nil {
					t.Fatal(err)
				}
			}
			reps := make([]engine.StepReport, workers)
			for d, s := range shards {
				var in [][]byte
				for src := range shards {
					if src != d {
						in = append(in, outs[src][d])
					}
				}
				if _, err := s.Deliver(in); err != nil {
					t.Fatal(err)
				}
				reps[d] = s.Barrier()
			}
			if b.Close(reps) {
				t.Fatalf("%d workers: stepped shards quiesced at superstep %d without failing", workers, step)
			}
		}
		if b.Executed() != failing-1 {
			t.Errorf("%d workers: stepped shards closed %d supersteps, want %d", workers, b.Executed(), failing-1)
		}
	}
}

func TestRuntimeRejectsEmitOutsideScatter(t *testing.T) {
	g := chain(t)
	_, err := Run(g, &floodProgram{emitEarly: true}, Options{NumWorkers: 1})
	if err == nil {
		t.Fatalf("Emit outside Scatter must fail the run")
	}
}

// propProgram floods like floodProgram and asks for a piece property where
// the test case says to.
type propProgram struct {
	floodProgram
	inCompute bool
	slot      int
}

func (p *propProgram) Compute(v *VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if p.inCompute {
		v.PieceProp(p.slot)
	}
	p.floodProgram.Compute(v, t, state, msgs)
}

func (p *propProgram) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	if !p.inCompute {
		if _, ok := v.PieceProp(p.slot); ok {
			panic("chain edges carry no properties")
		}
	}
	return p.floodProgram.Scatter(v, e, t, state)
}

func TestPiecePropFailsTheRunWhenThePlanCannotAnswer(t *testing.T) {
	labels := []string{tgraph.PropTravelTime, tgraph.PropTravelCost}
	for name, c := range map[string]struct {
		prog   propProgram
		labels []string
		fails  bool
	}{
		"declared slot in Scatter":   {propProgram{slot: 1}, labels, false},
		"outside Scatter":            {propProgram{slot: 0, inCompute: true}, labels, true},
		"slot past the labels":       {propProgram{slot: 2}, labels, true},
		"negative slot":              {propProgram{slot: -1}, labels, true},
		"no labels declared":         {propProgram{slot: 0}, nil, true},
		"slot past the plan's eight": {propProgram{slot: 8}, []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}, true},
	} {
		_, err := Run(chain(t), &c.prog, Options{NumWorkers: 1, PropLabels: c.labels})
		if c.fails != errors.Is(err, ErrPieceProp) || !c.fails && err != nil {
			t.Errorf("%s: err = %v; want ErrPieceProp: %v", name, err, c.fails)
		}
	}
}

func TestRunRejectsEmptyGraph(t *testing.T) {
	b := tgraph.NewBuilder(0, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, &floodProgram{}, Options{}); err == nil {
		t.Fatalf("empty graph must be rejected")
	}
}

// countingProgram records compute tuples per superstep under ActivateAll.
type countingProgram struct {
	tuples map[int]int
}

func (p *countingProgram) Init(v *VertexCtx) { v.SetState(v.Lifespan(), int64(0)) }

func (p *countingProgram) Compute(v *VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if p.tuples != nil && v.ID() == 2 {
		p.tuples[v.Superstep()]++
	}
	if v.Superstep() == 1 && v.ID() == 0 {
		v.SetState(t, int64(1))
	}
}

func (p *countingProgram) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	// Send only over a sub-interval, leaving gaps.
	x := t.Intersect(ival.New(3, 5))
	if x.IsEmpty() {
		return nil
	}
	return []OutMsg{{When: x, Value: codec.IntWord(1)}}
}

func TestActivateAllCoversGaps(t *testing.T) {
	g := chain(t)
	p := &countingProgram{tuples: map[int]int{}}
	_, err := Run(g, p, Options{NumWorkers: 1, ActivateAll: true, MaxSupersteps: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Superstep 1: 1 tuple (whole lifespan). Later supersteps: vertex 2 has
	// no messages (vertex 1 never updates) so forced-active coverage gives
	// one tuple per partition per superstep.
	if p.tuples[1] != 1 {
		t.Errorf("superstep 1 tuples = %d, want 1", p.tuples[1])
	}
	if p.tuples[2] == 0 || p.tuples[3] == 0 {
		t.Errorf("forced-active vertex must compute every superstep: %v", p.tuples)
	}
}

// ---- scatter alignment against the all-pairs reference ----

// scatterCall is one Scatter invocation as the program sees it.
type scatterCall struct {
	dst         int
	when, piece ival.Interval
	value       any
}

// scatterRecProg writes a few sub-intervals of every vertex in superstep 1 —
// two of them adjacent, so the update list coalesces, and with different
// values, so one update spans several partitions — and records the ordered
// Scatter calls that follow, per source vertex.
type scatterRecProg struct {
	writes [][]ival.Interval
	calls  [][]scatterCall
}

func (p *scatterRecProg) Init(v *VertexCtx) { v.SetState(v.Lifespan(), int64(0)) }

func (p *scatterRecProg) Compute(v *VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	s, w := t.Start, ival.Time(64)
	if t.End != ival.Infinity && t.End-t.Start < w {
		w = t.End - t.Start
	}
	for k, iv := range []ival.Interval{
		ival.New(s, s+w/4),
		ival.New(s+w/2, s+3*w/4),
		ival.New(s+w/4, s+w/4+1),
		ival.New(s+w, t.End),
	} {
		if !iv.IsEmpty() && t.ContainsInterval(iv) {
			v.SetState(iv, int64(k+1))
			p.writes[v.Index()] = append(p.writes[v.Index()], iv)
		}
	}
}

func (p *scatterRecProg) Scatter(v *VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []OutMsg {
	p.calls[v.Index()] = append(p.calls[v.Index()], scatterCall{dst: v.scatterTo, when: t, piece: v.ScatterPiece(), value: state})
	return []OutMsg{{Value: codec.IntWord(state.(int64))}}
}

// TestScatterMatchesAllPairsOracle holds the scatter step of one superstep to
// the alignment it replaced: every updated partition against every piece of
// every traversed edge, no edge skipped, over the per-edge oracle tables of
// plan_test.go. The ordered stream of (destination, interval, piece, state)
// must be the same call for call — message order is what PageRank's float
// folds and the bit-identity matrices rest on.
func TestScatterMatchesAllPairsOracle(t *testing.T) {
	for gname, g := range planTestGraphs(t) {
		for oname, opts := range planOptionShapes() {
			prog := &scatterRecProg{
				writes: make([][]ival.Interval, g.NumVertices()),
				calls:  make([][]scatterCall, g.NumVertices()),
			}
			opts.NumWorkers, opts.MaxSupersteps = 2, 1
			r, err := Run(g, prog, opts)
			if err != nil {
				t.Fatalf("%s under %s: %v", gname, oname, err)
			}
			pieces, match, targets := oracleTables(g, opts)
			total := 0
			for v := 0; v < g.NumVertices(); v++ {
				var want []scatterCall
				upds := coalesceIntervals(slices.Clone(prog.writes[v]))
				for _, p := range r.State(v).Parts() {
					for _, u := range upds {
						x := u.Intersect(p.Interval)
						if x.IsEmpty() {
							continue
						}
						for _, tg := range targets[v] {
							for k, m := range match[tg.edge] {
								if y := m.Intersect(x); !y.IsEmpty() {
									want = append(want, scatterCall{dst: int(tg.dst), when: y, piece: pieces[tg.edge][k], value: p.Value})
								}
							}
						}
					}
				}
				if !slices.Equal(prog.calls[v], want) {
					t.Fatalf("%s under %s: vertex %d scatter stream differs\n  got    %v\n  oracle %v",
						gname, oname, v, prog.calls[v], want)
				}
				total += len(want)
			}
			if total == 0 {
				t.Errorf("%s under %s: no scatter call was made; the test compared nothing", gname, oname)
			}
		}
	}
}
