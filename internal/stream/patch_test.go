package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// oracleGraph is the materialization of an event log as it was before the
// accumulator kept its state as an epoch: the log replayed into one row per
// id, each label's value running from its event to the next one or its
// owner's end, every entity then built through the Builder in sorted id
// order, with a positive horizon cutting every end at it. Graph and Patch
// are held to it.
func oracleGraph(evs []Event, horizon ival.Time) (*tgraph.Graph, error) {
	type row struct {
		life     ival.Interval
		src, dst tgraph.VertexID
		sets     map[string][]Event
	}
	vs, es := map[tgraph.VertexID]*row{}, map[tgraph.EdgeID]*row{}
	for _, ev := range evs {
		switch ev.Op {
		case AddVertex:
			vs[ev.V] = &row{life: ival.New(ev.T, ival.Infinity), sets: map[string][]Event{}}
		case RemoveVertex:
			vs[ev.V].life.End = ev.T
		case AddEdge:
			es[ev.E] = &row{life: ival.New(ev.T, ival.Infinity), src: ev.Src, dst: ev.Dst, sets: map[string][]Event{}}
		case RemoveEdge:
			es[ev.E].life.End = ev.T
		case SetVertexProp:
			vs[ev.V].sets[ev.Label] = append(vs[ev.V].sets[ev.Label], ev)
		case SetEdgeProp:
			es[ev.E].sets[ev.Label] = append(es[ev.E].sets[ev.Label], ev)
		}
	}
	// cut is r's lifespan cut at the horizon; ok reports it non-empty.
	cut := func(r *row) (life ival.Interval, ok bool) {
		life = r.life
		if horizon > 0 {
			life.End = min(life.End, horizon)
		}
		return life, !life.IsEmpty()
	}
	props := func(r *row, life ival.Interval, add func(label string, iv ival.Interval, value int64)) {
		for label, sets := range r.sets {
			for i, ev := range sets {
				end := ival.Infinity
				if i+1 < len(sets) {
					end = sets[i+1].T
				}
				if iv := ival.New(ev.T, end).Intersect(life); !iv.IsEmpty() {
					add(label, iv, ev.Value)
				}
			}
		}
	}
	b := tgraph.NewBuilder(len(vs), len(es))
	for _, id := range sortedKeys(vs) {
		if life, ok := cut(vs[id]); ok {
			b.AddVertex(id, life)
			props(vs[id], life, func(label string, iv ival.Interval, value int64) { b.SetVertexProp(id, label, iv, value) })
		}
	}
	for _, id := range sortedKeys(es) {
		r := es[id]
		if life, ok := cut(r); ok {
			b.AddEdge(id, r.src, r.dst, life)
			props(r, life, func(label string, iv ival.Interval, value int64) { b.SetEdgeProp(id, label, iv, value) })
		}
	}
	return b.Build()
}

// sentinels are the errors a materialization can fail with.
var sentinels = []error{tgraph.ErrDuplicateVertex, tgraph.ErrDuplicateEdge, tgraph.ErrDanglingEdge,
	tgraph.ErrEdgeOutlives, tgraph.ErrPropOutlives, tgraph.ErrPropConflict, tgraph.ErrInvalidLifespan}

// sameOutcome holds a materialization to the oracle's: equal graphs, or
// errors with the same sentinel.
func sameOutcome(t *testing.T, what string, got *tgraph.Graph, gerr error, want *tgraph.Graph, werr error) {
	t.Helper()
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil {
			t.Fatalf("%s error %v, oracle error %v", what, gerr, werr)
		}
		for _, s := range sentinels {
			if errors.Is(werr, s) && !errors.Is(gerr, s) {
				t.Fatalf("%s error %v, oracle error %v", what, gerr, werr)
			}
		}
		return
	}
	if err := tgraph.Equal(got, want); err != nil {
		t.Fatalf("%s differs from the rebuild: %v", what, err)
	}
}

// patchStep holds the accumulator, after the log evs, to the oracle:
// Graph(horizon) — when positive — to the oracle at that horizon and to the
// window [0, horizon) of Graph(0), then the epoch Patch gives to the oracle
// unbounded. The base's snapshot bytes must not move. It returns the patched
// graph (nil after an error).
func patchStep(t *testing.T, a *Accumulator, evs []Event, horizon ival.Time) *tgraph.Graph {
	t.Helper()
	before := tgraph.EncodeSnapshot(a.base, nil)
	prev := a.base
	if horizon > 0 {
		got, gerr := a.Graph(horizon)
		want, werr := oracleGraph(evs, horizon)
		sameOutcome(t, fmt.Sprintf("Graph(%d)", horizon), got, gerr, want, werr)
		if whole, err := a.Graph(0); err == nil && gerr == nil {
			sliced, err := tgraph.Slice(whole, ival.New(0, horizon))
			if err != nil {
				t.Fatal(err)
			}
			if err := tgraph.Equal(got, sliced); err != nil {
				t.Fatalf("Graph(%d) is not the window [0, %d) of Graph(0): %v", horizon, horizon, err)
			}
		}
	}
	got, gerr := a.Patch()
	want, werr := oracleGraph(evs, 0)
	if !bytes.Equal(tgraph.EncodeSnapshot(prev, nil), before) {
		t.Fatalf("Patch wrote into its predecessor")
	}
	sameOutcome(t, "patched epoch", got, gerr, want, werr)
	if gerr != nil {
		return nil
	}
	return got
}

// TestEpochPatchMatchesRebuild replays generated graphs' event logs in seeded
// random batches of 1 to 20 ticks: after every batch the patched epoch must
// equal the rebuild, its predecessor must be untouched, and Graph at a
// horizon half-way through the log must equal both the rebuild cut there and
// that window of the unbounded graph.
func TestEpochPatchMatchesRebuild(t *testing.T) {
	for _, p := range []gen.Profile{gen.MAGLike(0.1), gen.TwitterLike(0.1), gen.USRNLike(0.1)} {
		g, err := gen.Generate(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		evs := EventsOf(g)
		horizon := evs[len(evs)-1].T / 2
		r := rand.New(rand.NewSource(3))
		a := NewAccumulator()
		for i, batches := 0, 0; i < len(evs); batches++ {
			// A batch is every event of the next 1 to 20 ticks.
			last := evs[i].T + ival.Time(r.Intn(20))
			for ; i < len(evs) && evs[i].T <= last; i++ {
				if err := a.Apply(evs[i]); err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
			}
			if patchStep(t, a, evs[:i], horizon) == nil {
				t.Fatalf("%s: batch %d did not materialize", p.Name, batches)
			}
		}
	}
}

// FuzzEpochPatch decodes bytes into event batches over a few ids, applies the
// ones Preflight accepts, and after each holds the patched epoch, and Graph
// at a horizon, to the rebuild. Byte 0 picks the horizon; then four bytes
// make an event: op (6 ends the batch), time step, and two operands.
func FuzzEpochPatch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 2, 1, 3, 1, 7, 0, 0, 0, 5, 1, 3, 9, 7, 0, 0, 0, 3, 1, 3, 0, 1, 0, 1, 0})
	f.Add([]byte{3, 0, 0, 1, 0, 0, 0, 2, 0, 2, 0, 0, 7, 7, 0, 0, 0, 3, 9, 0, 0, 7, 0, 0, 0, 1, 1, 1, 0})
	f.Add([]byte{5, 0, 0, 1, 0, 0, 1, 2, 0, 4, 1, 1, 4, 7, 0, 0, 0, 0, 2, 3, 0, 1, 4, 1, 3, 7, 0, 0, 0, 2, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		horizon := ival.Time(data[0] % 6 * 2) // 0: unbounded
		a := NewAccumulator()
		var applied, batch []Event
		now := ival.Time(0)
		flush := func() {
			if len(batch) == 0 || a.Preflight(batch) != nil {
				batch = batch[:0]
				return
			}
			for _, ev := range batch {
				if err := a.Apply(ev); err != nil {
					t.Fatalf("preflighted event %+v rejected: %v", ev, err)
				}
			}
			applied = append(applied, batch...)
			batch = batch[:0]
			patchStep(t, a, applied, horizon)
		}
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			op, x, y := data[0]%7, data[2], data[3]
			if op == 6 {
				flush()
				continue
			}
			now += ival.Time(data[1] % 3)
			ev := Event{Op: Op(op), T: now, V: tgraph.VertexID(x % 6), E: tgraph.EdgeID(x % 8),
				Src: tgraph.VertexID(y % 6), Dst: tgraph.VertexID(y / 6 % 6), Label: []string{"a", "b"}[y%2], Value: int64(y)}
			batch = append(batch, ev)
		}
		flush()
	})
}

// TestRemoveVertexWithOpenEdges: a vertex cannot leave while an edge of its
// is open — the edge would outlive it — in Preflight and in Apply alike,
// self-loops and edges added in the same batch included.
func TestRemoveVertexWithOpenEdges(t *testing.T) {
	a := NewAccumulator()
	apply(t, a,
		Event{Op: AddVertex, T: 0, V: 1},
		Event{Op: AddVertex, T: 0, V: 2},
		Event{Op: AddEdge, T: 1, E: 10, Src: 1, Dst: 2},
		Event{Op: AddEdge, T: 1, E: 11, Src: 2, Dst: 2},
	)
	for _, batch := range [][]Event{
		{{Op: RemoveVertex, T: 5, V: 1}},
		{{Op: RemoveEdge, T: 5, E: 11}, {Op: RemoveVertex, T: 5, V: 2}},
		{{Op: RemoveEdge, T: 5, E: 10}, {Op: AddEdge, T: 6, E: 12, Src: 1, Dst: 2}, {Op: RemoveVertex, T: 7, V: 1}},
	} {
		if err := a.Preflight(batch); !errors.Is(err, tgraph.ErrEdgeOutlives) {
			t.Errorf("Preflight(%+v) = %v, want ErrEdgeOutlives", batch, err)
		}
	}
	if err := a.Apply(Event{Op: RemoveVertex, T: 5, V: 1}); !errors.Is(err, tgraph.ErrEdgeOutlives) {
		t.Fatalf("Apply = %v, want ErrEdgeOutlives", err)
	}
	closeAll := []Event{{Op: RemoveEdge, T: 5, E: 10}, {Op: RemoveEdge, T: 5, E: 11},
		{Op: RemoveVertex, T: 6, V: 1}, {Op: RemoveVertex, T: 6, V: 2}}
	if err := a.Preflight(closeAll); err != nil {
		t.Fatalf("closing the edges first: %v", err)
	}
	apply(t, a, closeAll...)
	if _, err := a.Graph(0); err != nil {
		t.Fatal(err)
	}
}

// TestHorizonClipsClosedEnds: with a positive horizon an entity closed past
// it is cut there, as an open one is — not left outliving its endpoints.
func TestHorizonClipsClosedEnds(t *testing.T) {
	history := func(end ival.Time) *Accumulator {
		a := NewAccumulator()
		apply(t, a,
			Event{Op: AddVertex, T: 0, V: 1},
			Event{Op: AddVertex, T: 0, V: 2},
			Event{Op: AddEdge, T: 1, E: 10, Src: 1, Dst: 2},
			Event{Op: SetEdgeProp, T: 3, E: 10, Label: "w", Value: 4},
			Event{Op: RemoveEdge, T: end, E: 10},
		)
		return a
	}
	got, err := history(15).Graph(10)
	if err != nil {
		t.Fatalf("edge closed past the horizon: %v", err)
	}
	want, err := history(10).Graph(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tgraph.Equal(got, want); err != nil {
		t.Errorf("edge closed at 15 under horizon 10 differs from one closed at 10: %v", err)
	}
}

// TestPreflightMatchesApply: Preflight runs Apply's own checks over copies of
// the rows, so on an EventsOf log with one bad event injected — a reopen, a
// still-open add, an unknown owner, an event out of order, a vertex removed
// under an open edge — it fails at the index, with the error, at which
// applying the batch one event at a time to a clone first fails: the
// injected event, with its sentinel. The accumulator under test has half its
// history in its epoch and half in its overlay; a clone resumes from the
// epoch of the whole history.
func TestPreflightMatchesApply(t *testing.T) {
	g, err := gen.Generate(gen.MAGLike(0.05), 5)
	if err != nil {
		t.Fatal(err)
	}
	evs := EventsOf(g)
	half := evs[:len(evs)/2]
	a, ref := NewAccumulator(), NewAccumulator()
	for i, ev := range half {
		if i == len(half)/2 {
			if _, err := a.Patch(); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.ov.v) == 0 || a.base.NumVertices() == 0 {
		t.Fatal("the accumulator under test has no overlay over its epoch")
	}
	epoch, err := ref.Patch()
	if err != nil {
		t.Fatal(err)
	}
	batch := evs[len(evs)/2:]
	clone := func() *Accumulator { return Resume(epoch, ref.Now(), ref.Events(), ref.Retired()) }
	// vertex returns the first vertex of c's epoch or overlay that pick
	// takes, given its row and its count of open edges.
	vertex := func(c *Accumulator, pick func(x *entity, open int) bool) (tgraph.VertexID, bool) {
		ids := sortedKeys(c.ov.v)
		for _, v := range c.base.Vertices() {
			ids = append(ids, v.ID)
		}
		for _, id := range ids {
			sv := spanView{a: c, ov: &c.ov}
			x, _ := sv.vertex(id)
			if pick(x, sv.openEdges(id)) {
				return id, true
			}
		}
		return 0, false
	}
	// Each maker returns an event that fails against c, at c's clock, with
	// the sentinel its name maps to.
	want := map[string]error{"reopen": ErrReopened, "still open": ErrStillOpen, "unknown owner": ErrUnknownOwner,
		"out of order": ErrOutOfOrder, "removed under an open edge": tgraph.ErrEdgeOutlives}
	bad := map[string]func(c *Accumulator) (Event, bool){
		"reopen": func(c *Accumulator) (Event, bool) {
			id, ok := vertex(c, func(x *entity, _ int) bool { return x.closed() })
			return Event{Op: AddVertex, T: c.Now(), V: id}, ok
		},
		"still open": func(c *Accumulator) (Event, bool) {
			id, ok := vertex(c, func(x *entity, _ int) bool { return !x.closed() })
			return Event{Op: AddVertex, T: c.Now(), V: id}, ok
		},
		"unknown owner": func(c *Accumulator) (Event, bool) {
			return Event{Op: SetVertexProp, T: c.Now(), V: 1 << 40, Label: "w", Value: 1}, true
		},
		"out of order": func(c *Accumulator) (Event, bool) {
			return Event{Op: AddVertex, T: c.Now() - 1, V: 1 << 40}, c.Now() > 0
		},
		"removed under an open edge": func(c *Accumulator) (Event, bool) {
			id, ok := vertex(c, func(x *entity, open int) bool { return !x.closed() && open > 0 })
			return Event{Op: RemoveVertex, T: c.Now(), V: id}, ok
		},
	}
	injected := map[string]int{}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		at := rng.Intn(len(batch))
		c := clone()
		for _, ev := range batch[:at] {
			if err := c.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		for name, mk := range bad {
			ev, ok := mk(c)
			if !ok {
				continue
			}
			injected[name]++
			b := slices.Insert(slices.Clone(batch), at, ev)
			perr := a.Preflight(b)
			one, first := clone(), -1
			var aerr error
			for i, ev := range b {
				if aerr = one.Apply(ev); aerr != nil {
					first = i
					break
				}
			}
			if first != at || !errors.Is(aerr, want[name]) {
				t.Fatalf("%s at %d: applying the batch one event at a time failed at event %d: %v", name, at, first, aerr)
			}
			if perr == nil || perr.Error() != fmt.Sprintf("stream: batch event %d: %v", first, aerr) || !errors.Is(perr, want[name]) {
				t.Fatalf("%s at %d: Preflight: %v; one at a time: event %d, %v", name, at, perr, first, aerr)
			}
		}
	}
	for name := range bad {
		if injected[name] == 0 {
			t.Errorf("no trial could inject %s", name)
		}
	}
	if err := a.Preflight(batch); err != nil {
		t.Errorf("the log's own second half: %v", err)
	}
}
