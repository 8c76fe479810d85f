package algorithms

// The window view (core.Options.Window, Params.Window) of every catalog
// algorithm against its oracle: the same algorithm run over tgraph.Slice of
// the window, at the same worker count and with each kept vertex on the
// worker the view puts it on (its parent index modulo the worker count; the
// slice renumbers its vertices, and PageRank's sums and LCC's and TC's lists
// follow the order messages arrive in). States must agree per vertex id,
// vertices the slice drops must be absent from the view's result, and every
// count the paper reasons with must be the same number — the view does the
// slice's work, not different work.

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// graphReaders are the catalog algorithms that read the graph itself —
// adjacency through VertexCtx.Graph, or degree partitions built in their
// constructors — and clip what they read to the interval they were called
// for. They are the costly part of the differential, so under -short they run
// on MAGLike only, the profile whose windows drop vertices.
var graphReaders = map[string]bool{"pr": true, "scc": true, "lcc": true, "tc": true}

// viewCounts are the counts a view run must share with the run over the
// slice.
type viewCounts struct {
	Messages, MessageBytes, ComputeCalls, ScatterCalls       int64
	Supersteps                                               int
	WarpCalls, WarpSuppressed, ActiveIntervals, StateUpdates int64
}

func countsOf(r *core.Result) viewCounts {
	return viewCounts{
		Messages: r.Metrics.Messages, MessageBytes: r.Metrics.MessageBytes,
		ComputeCalls: r.Metrics.ComputeCalls, ScatterCalls: r.Metrics.ScatterCalls,
		Supersteps: r.Metrics.Supersteps,
		WarpCalls:  r.Stats.WarpCalls, WarpSuppressed: r.Stats.WarpSuppressed,
		ActiveIntervals: r.Stats.ActiveIntervals, StateUpdates: r.Stats.StateUpdates,
	}
}

// viewDriver runs a catalog algorithm to completion one of the two ways the
// repository executes a query.
type viewDriver func(g *tgraph.Graph, name string, p Params, workers int) (*core.Result, error)

func runEngine(g *tgraph.Graph, name string, p Params, workers int) (*core.Result, error) {
	prog, opts, err := New(g, name, p)
	if err != nil {
		return nil, err
	}
	opts.NumWorkers = workers
	opts.CheckInvariants = true
	return core.Run(g, prog, opts)
}

// runStepped drives core.Shards by hand through the cluster protocol —
// Compute, Outbound, Deliver in ascending source order, Barrier, the
// supersteps closed through core.NewBarrier — and assembles the result from
// their encoded states (in the program's state codec), with the metrics the
// barrier's ledger holds.
func runStepped(g *tgraph.Graph, name string, p Params, workers int) (*core.Result, error) {
	workers = min(workers, g.NumVertices()) // the engine never runs more workers than vertices
	shards := make([]*core.Shard, workers)
	var opts core.Options
	var pc codec.Payload
	for i := range shards {
		prog, o, err := New(g, name, p)
		if err != nil {
			return nil, err
		}
		o.NumWorkers = workers
		if shards[i], err = core.NewShard(g, prog, o, i); err != nil {
			return nil, err
		}
		defer shards[i].Close()
		opts, pc = o, core.StateCodecOf(prog, o)
	}
	b, err := core.NewBarrier(opts, 0)
	if err != nil {
		return nil, err
	}
	for _, s := range shards {
		if err := s.Init(); err != nil {
			return nil, err
		}
	}
	for step, done := 1, false; !done && b.Open(step); step++ {
		outs := make([][][]byte, workers)
		for i, s := range shards {
			s.SetPhase(b.Phase())
			if err := s.Compute(); err != nil {
				return nil, err
			}
			var err error
			if outs[i], err = s.Outbound(); err != nil {
				return nil, err
			}
		}
		for d, s := range shards {
			var batches [][]byte
			for src := range shards {
				if src != d {
					batches = append(batches, outs[src][d])
				}
			}
			if _, err := s.Deliver(batches); err != nil {
				return nil, err
			}
		}
		reps := make([]engine.StepReport, workers)
		for i, s := range shards {
			reps[i] = s.Barrier()
		}
		done = b.Close(reps)
	}
	blobs := make([][]byte, workers)
	for i, s := range shards {
		var err error
		if blobs[i], err = s.EncodeOwnedStates(); err != nil {
			return nil, err
		}
	}
	return core.AssembleResult(g, pc, blobs, b.Metrics())
}

// viewEndpoints picks the query's source and target inside the window: the
// endpoints of the first edge alive in it, so the traversal has somewhere to
// go, or of the first vertex alive in it when no edge is.
func viewEndpoints(g *tgraph.Graph, w ival.Interval) Params {
	for i := range g.Edges() {
		if e := g.Edge(i); e.Lifespan.Intersects(w) {
			return Params{Source: e.Src, Target: e.Dst}
		}
	}
	for i := range g.Vertices() {
		if v := g.VertexAt(i); v.Lifespan.Intersects(w) {
			return Params{Source: v.ID, Target: v.ID}
		}
	}
	return Params{}
}

// viewOracle is one algorithm's runs over the slice of a window, placed as
// the view places its vertices: per worker count, the answer every way of
// running the view must repeat.
type viewOracle struct {
	slice *tgraph.Graph
	orig  []int // slice index → parent index
	name  string
	p     Params
	runs  map[int]oracleRun
}

// oracleRun is the oracle at one worker count; err is set when the window
// keeps nothing and the run is refused.
type oracleRun struct {
	res *core.Result
	err error
}

func newViewOracle(t testing.TB, g *tgraph.Graph, w ival.Interval, name string, p Params) *viewOracle {
	t.Helper()
	s, err := tgraph.Slice(g, w)
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]int, s.NumVertices())
	for i := range orig {
		orig[i] = g.IndexOf(s.VertexAt(i).ID)
	}
	return &viewOracle{slice: s, orig: orig, name: name, p: p, runs: map[int]oracleRun{}}
}

// at is the oracle's run at the given worker count, run once.
func (o *viewOracle) at(workers int) oracleRun {
	if r, ok := o.runs[workers]; ok {
		return r
	}
	var r oracleRun
	prog, opts, err := New(o.slice, o.name, o.p)
	if err != nil {
		r.err = err
	} else {
		opts.NumWorkers = workers
		opts.CheckInvariants = true
		// The view runs workers shards; the engine gives the slice at most
		// one per vertex. So each vertex goes to its view shard's rank among
		// the shards the kept vertices use: every receiver then hears its
		// own shard first and its peers in the view's ascending order.
		rank := make([]int, workers)
		for _, gi := range o.orig {
			rank[gi%workers] = 1
		}
		for w, used := 0, 0; w < workers; w++ {
			used, rank[w] = used+rank[w], used
		}
		opts.Partitioner = func(v, _ int) int { return rank[o.orig[v]%workers] }
		r.res, r.err = core.Run(o.slice, prog, opts)
	}
	o.runs[workers] = r
	return r
}

// check holds one view run at the given worker count to the oracle.
func (o *viewOracle) check(t testing.TB, label string, g *tgraph.Graph, workers int, got *core.Result, err error) {
	t.Helper()
	run := o.at(workers)
	if run.err != nil {
		if o.slice.NumVertices() != 0 {
			t.Fatalf("%s: oracle run failed over a non-empty slice: %v", label, run.err)
		}
		if err == nil || !strings.Contains(err.Error(), "contains no vertices") {
			t.Errorf("%s: the window keeps nothing; the view run returned %v, want a refusal", label, err)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: %v", label, err)
		return
	}
	if a, b := countsOf(got), countsOf(run.res); a != b {
		t.Errorf("%s: counts\n  view  %+v\n  slice %+v", label, a, b)
	}
	kept := 0
	for i := 0; i < g.NumVertices(); i++ {
		id := g.VertexAt(i).ID
		st, want := got.State(i), run.res.StateByID(id)
		if st != got.StateByID(id) {
			t.Errorf("%s: vertex %d: State and StateByID disagree", label, id)
		}
		if want == nil {
			if st != nil {
				t.Errorf("%s: vertex %d is outside the window and has state %v", label, id, st.Parts())
			}
			continue
		}
		kept++
		if st == nil {
			t.Errorf("%s: vertex %d is inside the window and has no state", label, id)
			continue
		}
		if st.Lifespan() != want.Lifespan() || !reflect.DeepEqual(st.Parts(), want.Parts()) {
			t.Errorf("%s: vertex %d over %v:\n  view  %v\n  slice %v", label, id, st.Lifespan(), st.Parts(), want.Parts())
		}
	}
	if kept != o.slice.NumVertices() {
		t.Errorf("%s: the view keeps %d of the slice's %d vertices", label, kept, o.slice.NumVertices())
	}
}

// TestWindowViewMatchesSliceOracle is the differential: the 12 catalog
// algorithms × slice_gen_test.go's window palette × the two profiles the
// benchmark serves × built and mapped parent × 1, 2 and 3 workers × both
// superstep drivers. Under -short the graph readers run on MAGLike only.
func TestWindowViewMatchesSliceOracle(t *testing.T) {
	drivers := map[string]viewDriver{"engine": runEngine, "stepped": runStepped}
	var dropped, cut bool
	for _, prof := range []gen.Profile{gen.TwitterLike(0.05), gen.MAGLike(0.05)} {
		built, err := gen.Generate(prof, 11)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "g.gsn")
		if err := tgraph.WriteSnapshotFile(path, built); err != nil {
			t.Fatal(err)
		}
		mapped, err := tgraph.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		hull, h := built.Lifespan(), built.Horizon()
		windows := map[string]ival.Interval{
			"universe":      ival.Universe,
			"hull":          hull,
			"half":          ival.New(0, h/2),
			"unit":          ival.Point(h / 2),
			"late":          ival.From(h - h/4),
			"keeps nothing": ival.New(hull.End, hull.End+5),
		}
		for i := range built.Edges() {
			for _, entries := range built.Edge(i).Props.All() {
				for _, p := range entries {
					if _, ok := windows["mid-entry"]; !ok && p.Interval.Length() >= 2 {
						windows["mid-entry"] = ival.New(0, p.Interval.Start+1)
					}
				}
			}
		}
		for wname, w := range windows {
			p := viewEndpoints(built, w)
			p.StartTime = w.Start
			for _, name := range Names() {
				if testing.Short() && graphReaders[name] && prof.Name != "mag" {
					continue
				}
				oracle := newViewOracle(t, built, w, name, p)
				if run := oracle.at(1); run.err == nil {
					dropped = dropped || oracle.slice.NumVertices() < built.NumVertices()
					cut = cut || (wname == "mid-entry" && run.res.Metrics.Messages > 0)
				}
				p.Window = w
				for src, g := range map[string]*tgraph.Graph{"built": built, "mapped": mapped.Graph} {
					for dname, drive := range drivers {
						for workers := 1; workers <= 3; workers++ {
							label := strings.Join([]string{prof.Name, wname, name, src, dname, string(rune('0' + workers))}, "/")
							got, err := drive(g, name, p, workers)
							oracle.check(t, label, g, workers, got, err)
						}
					}
				}
				p.Window = ival.Interval{}
			}
		}
	}
	if !dropped || !cut {
		t.Errorf("matrix lost coverage: a window dropped vertices = %v, a window cut a property entry under traffic = %v", dropped, cut)
	}
}

// windowTorture is a hand-built graph whose boundaries sit where a window
// view can go wrong: vertex 1 dies before the windows below open and vertex 7
// is born after they close; edge 10 straddles a window start and edge 13 a
// window end; travel-time changes value exactly at 10 and at 20, both window
// edges; edge 12 lives for one time-point; vertices 2, 3 and 4 never die, for
// the till-∞ window that opens in the middle of their lifespans; and edge 13's
// travel time carries an arrival past the window end it departs before (LD's
// slack-translated trigger crosses that end).
func windowTorture(t testing.TB) *tgraph.Graph {
	t.Helper()
	b := tgraph.NewBuilder(7, 6)
	b.AddVertex(1, ival.New(0, 6)).AddVertex(2, ival.From(0)).AddVertex(3, ival.From(2)).
		AddVertex(4, ival.From(5)).AddVertex(5, ival.New(8, 30)).AddVertex(6, ival.New(10, 20)).
		AddVertex(7, ival.New(40, 50))
	edge := func(id tgraph.EdgeID, src, dst tgraph.VertexID, life ival.Interval, segs ...int64) {
		b.AddEdge(id, src, dst, life)
		// segs: (cut, travel-time) pairs; each segment runs to the next cut.
		for i := 0; i+1 < len(segs); i += 2 {
			end := life.End
			if i+2 < len(segs) {
				end = segs[i+2]
			}
			b.SetEdgeProp(id, tgraph.PropTravelTime, ival.New(segs[i], end), segs[i+1])
			b.SetEdgeProp(id, tgraph.PropTravelCost, ival.New(segs[i], end), segs[i+1]+int64(id))
		}
	}
	edge(9, 1, 2, ival.New(1, 5), 1, 2)
	edge(10, 2, 3, ival.New(4, 26), 4, 3, 10, 1, 20, 4)
	edge(11, 3, 4, ival.From(6), 6, 2, 20, 1)
	edge(12, 4, 5, ival.New(12, 13), 12, 1)
	edge(13, 3, 5, ival.New(15, 28), 15, 7)
	edge(14, 5, 6, ival.New(10, 20), 10, 2, 14, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWindowViewTorture(t *testing.T) {
	g := windowTorture(t)
	windows := []ival.Interval{
		ival.New(10, 20), // drops 1 and 7; starts inside edge 10; both ends on property boundaries
		ival.New(7, 20),  // edge 13's departures reach past the end
		ival.New(12, 13), // unit length: exactly edge 12's lifespan
		ival.Point(19),   // unit length at a window end of the others
		ival.From(9),     // till ∞ from the middle of 2, 3 and 4
		ival.New(0, 5),   // only the early corner; drops 4, 5, 6, 7
		ival.New(35, 45), // vertex 7 alone of the bounded ones, no edges
		ival.New(0, 100), // contains every bounded lifespan, still clips the unbounded
	}
	for _, w := range windows {
		for _, name := range Names() {
			for _, src := range []tgraph.VertexID{2, 3} {
				p := Params{Source: src, Target: 5, StartTime: w.Start}
				if !g.Vertex(5).Lifespan.Intersects(w) {
					p.Target = 3
				}
				checkScatterStream(t, g, w, name, p)
				oracle := newViewOracle(t, g, w, name, p)
				p.Window = w
				for workers := 1; workers <= 3; workers++ {
					label := strings.Join([]string{w.String(), name, string(rune('0' + workers))}, "/")
					got, err := runEngine(g, name, p, workers)
					oracle.check(t, label+"/engine", g, workers, got, err)
					got, err = runStepped(g, name, p, workers)
					oracle.check(t, label+"/stepped", g, workers, got, err)
				}
			}
		}
	}
}

// scatterCall is everything one Scatter call can observe through VertexCtx.
type scatterCall struct {
	step     int
	vertex   tgraph.VertexID
	edge     tgraph.EdgeID
	piece, t ival.Interval
	tt, tc   int64
	ok       bool
	state    any
}

// scatterProbe records every Scatter call of the program it wraps. Run it on
// one worker: calls then come in dense vertex order, which a slice keeps.
type scatterProbe struct {
	core.Program
	props bool // the program declares the travel labels
	calls []scatterCall
}

func (p *scatterProbe) Scatter(v *core.VertexCtx, e *tgraph.Edge, t ival.Interval, state any) []core.OutMsg {
	var tt, tc int64
	var ok bool
	if p.props {
		tt, tc, ok = pieceTravel(v)
	}
	p.calls = append(p.calls, scatterCall{v.Superstep(), v.ID(), e.ID, v.ScatterPiece(), t, tt, tc, ok, state})
	return p.Program.Scatter(v, e, t, state)
}

// checkScatterStream holds the view to the slice call by call: the same
// Scatter calls in the same order, each seeing the same piece — clipped to
// the window, where the plan holds the whole graph's — the same scatter
// interval, property values and state. LD is the one catalog program that
// reads ScatterPiece, and with non-negative travel times its answer cannot
// tell a clipped piece from a whole one; the stream can.
func checkScatterStream(t testing.TB, g *tgraph.Graph, w ival.Interval, name string, p Params) {
	t.Helper()
	stream := func(g *tgraph.Graph, p Params) []scatterCall {
		prog, opts, err := New(g, name, p)
		if err != nil {
			t.Fatal(err)
		}
		probe := &scatterProbe{Program: prog, props: len(opts.PropLabels) > 0}
		opts.NumWorkers = 1
		if _, err := core.Run(g, probe, opts); err != nil {
			t.Fatalf("%s over %v: %v", name, w, err)
		}
		return probe.calls
	}
	s, err := tgraph.Slice(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() == 0 {
		return
	}
	want := stream(s, p)
	p.Window = w
	got := stream(g, p)
	if len(got) != len(want) {
		t.Errorf("%s over %v: %d Scatter calls through the view, %d over the slice", name, w, len(got), len(want))
		return
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s over %v: Scatter call %d\n  view  %+v\n  slice %+v", name, w, i, got[i], want[i])
			return
		}
	}
}

// TestWindowedTotals: the totals read every vertex's state, and a windowed
// run has none for the vertices its window dropped. TriangleTotal over the
// view is its value over the slice at every time-point of the window;
// FFMTotal, whose program reads whole lifespans and so is no view, still
// reads a windowed result without faulting.
func TestWindowedTotals(t *testing.T) {
	g, err := gen.Generate(gen.MAGLike(0.05), 11)
	if err != nil {
		t.Fatal(err)
	}
	w := ival.New(g.Horizon()*3/4, g.Horizon())
	s, err := tgraph.Slice(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() == g.NumVertices() {
		t.Fatalf("window %v drops no vertex", w)
	}
	view, err := runEngine(g, "tc", Params{Window: w}, 2)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := runEngine(s, "tc", Params{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var triangles int64
	for ts := w.Start; ts < w.End; ts++ {
		got, want := TriangleTotal(view, ts), TriangleTotal(slice, ts)
		if got != want {
			t.Errorf("TriangleTotal at %d: %d through the view, %d over the slice", ts, got, want)
		}
		triangles += want
	}
	if triangles == 0 {
		t.Errorf("no triangle is alive in %v", w)
	}
	ffm := &FFM{}
	opts := ffm.Options()
	opts.Window = w
	r, err := core.Run(g, ffm, opts)
	if err != nil {
		t.Fatal(err)
	}
	FFMTotal(r)
}

// shout is a program that, from every vertex in superstep 1, messages every
// dense index of the graph directly.
type shout struct{}

func (shout) Init(v *core.VertexCtx) { v.SetState(v.Lifespan(), int64(0)) }
func (shout) Compute(v *core.VertexCtx, t ival.Interval, state any, msgs []codec.Word) {
	if v.Superstep() == 1 {
		for dst := 0; dst < v.Graph().NumVertices(); dst++ {
			v.SendTo(dst, t, codec.IntWord(1))
		}
		return
	}
	v.SetState(t, state.(int64)+int64(len(msgs)))
}
func (shout) Scatter(*core.VertexCtx, *tgraph.Edge, ival.Interval, any) []core.OutMsg { return nil }

// TestWindowViewSendToDroppedVertex: a vertex the window dropped is not
// there to be messaged. Nothing is sent to it, nothing is counted, and it
// stays without a state.
func TestWindowViewSendToDroppedVertex(t *testing.T) {
	g := windowTorture(t)
	w := ival.New(10, 20)
	kept := int64(0)
	for i := range g.Vertices() {
		if g.VertexAt(i).Lifespan.Intersects(w) {
			kept++
		}
	}
	r, err := core.Run(g, shout{}, core.Options{NumWorkers: 2, Window: w, PayloadCodec: codec.Int64{}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.Messages != kept*kept {
		t.Errorf("%d messages among %d kept vertices, want %d", r.Metrics.Messages, kept, kept*kept)
	}
	for i := range g.Vertices() {
		v, st := g.VertexAt(i), r.State(i)
		if !v.Lifespan.Intersects(w) {
			if st != nil {
				t.Errorf("vertex %d is outside %v and has state %v", v.ID, w, st.Parts())
			}
			continue
		}
		// Every kept vertex hears from every kept vertex over the overlap of
		// their clipped lifespans; none hears from a dropped one.
		if got, _ := st.Get(st.Lifespan().Start); st.Lifespan() != v.Lifespan.Intersect(w) || got == int64(0) {
			t.Errorf("vertex %d: state %v over %v", v.ID, st.Parts(), st.Lifespan())
		}
	}
}

// arbitraryTravelGraph derives a valid graph with segmented, holed travel
// properties from a PRNG seed, shaped like tgraph's buildArbitrary: sparse
// ids out of dense order, bounded and unbounded lifespans.
func arbitraryTravelGraph(seed uint64, nv, ne int) *tgraph.Graph {
	rng := seed
	next := func() uint64 { // splitmix64
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	b := tgraph.NewBuilder(nv, ne)
	ids := make([]tgraph.VertexID, nv)
	lives := make([]ival.Interval, nv)
	for i := range ids {
		ids[i] = tgraph.VertexID((uint64(i)*7919+seed)%100003*16 + uint64(i)%16) // unique, not ascending
		start := ival.Time(next() % 40)
		lives[i] = ival.From(start)
		if next()%3 != 0 {
			lives[i] = ival.New(start, start+1+ival.Time(next()%60))
		}
		b.AddVertex(ids[i], lives[i])
	}
	for i := 0; i < ne && nv > 0; i++ {
		s, d := int(next()%uint64(nv)), int(next()%uint64(nv))
		hull := lives[s].Intersect(lives[d])
		if hull.IsEmpty() {
			continue
		}
		life := hull
		if span := hull.Length(); next()%2 == 0 && span > 1 {
			at := hull.Start + ival.Time(next()%uint64(min(span-1, 30)))
			life = ival.New(at, min(hull.End, at+1+ival.Time(next()%20)))
		}
		id := tgraph.EdgeID(i)
		b.AddEdge(id, ids[s], ids[d], life)
		// Up to three segments of each travel label, some of them holes.
		for _, label := range []string{tgraph.PropTravelTime, tgraph.PropTravelCost} {
			at := life.Start
			for seg := 0; seg < 3 && at < life.End; seg++ {
				end := life.End
				if seg < 2 && life.End != ival.Infinity && life.End-at > 1 {
					end = at + 1 + ival.Time(next()%uint64(life.End-at-1))
				} else if seg < 2 && life.End == ival.Infinity {
					end = at + 1 + ival.Time(next()%15)
				}
				if next()%5 != 0 {
					b.SetEdgeProp(id, label, ival.New(at, end), int64(next()%6))
				}
				at = end
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// checkArbitraryView runs one catalog algorithm, chosen by the seed, over the
// arbitrary graph and window both ways and on both drivers.
func checkArbitraryView(t testing.TB, seed uint64, nv, ne int, w ival.Interval) {
	t.Helper()
	names := Names()
	name := names[seed%uint64(len(names))]
	if graphReaders[name] {
		// TC and LCC pair every origin with every parallel closing edge: over
		// two or three vertices and a few hundred edges one TC run takes
		// seconds, with or without a window, past the fuzzer's 10 s budget
		// per input. The graph readers get at most 8 edges per vertex.
		ne = min(ne, 8*nv)
	}
	g := arbitraryTravelGraph(seed, nv, ne)
	if g.NumVertices() == 0 || w == (ival.Interval{}) {
		return // the zero window is how Params and Options spell "no window"
	}
	p := viewEndpoints(g, w)
	p.StartTime = max(w.Start, 0)
	checkScatterStream(t, g, w, name, p)
	oracle := newViewOracle(t, g, w, name, p)
	p.Window = w
	workers := 1 + int(seed>>8)%3
	got, err := runEngine(g, name, p, workers)
	oracle.check(t, name+"/engine", g, workers, got, err)
	got, err = runStepped(g, name, p, workers)
	oracle.check(t, name+"/stepped", g, workers, got, err)
}

func TestWindowViewOnArbitraryGraphs(t *testing.T) {
	windows := []ival.Interval{
		ival.New(0, 1), ival.New(0, 25), ival.New(25, 60), ival.New(40, 41), ival.From(30),
		ival.From(200), ival.New(7, 7), ival.New(9, 2), ival.New(0, 1000),
	}
	for seed := uint64(0); seed < 48; seed++ {
		for _, w := range windows {
			checkArbitraryView(t, seed*2654435761+seed, 24, 90, w)
		}
	}
}

// FuzzWindowView is FuzzSlice's input — a graph seed, its size, a window,
// valid or not — put through the view and the slice oracle.
func FuzzWindowView(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), int64(0), int64(10))
	f.Add(uint64(7), uint8(40), uint8(120), int64(10), int64(40))
	f.Add(uint64(13), uint8(1), uint8(255), int64(3), int64(4))
	f.Add(uint64(99), uint8(200), uint8(50), int64(60), int64(ival.Infinity))
	f.Add(uint64(5), uint8(30), uint8(90), int64(20), int64(5))
	f.Add(uint64(0x1305), uint8(60), uint8(250), int64(12), int64(31))
	f.Fuzz(func(t *testing.T, seed uint64, nv, ne uint8, start, end int64) {
		// A finite end far past every lifespan turns the unbounded ones into
		// astronomically long bounded ones, which the suppressed point path
		// enumerates — over the slice as through the view.
		if end != int64(ival.Infinity) {
			end %= 1 << 7
		}
		checkArbitraryView(t, seed, int(nv), int(ne), ival.New(ival.Time(start), ival.Time(end)))
	})
}
