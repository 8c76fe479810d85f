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

// oracleGraph is the accumulator's materialization as it was before epochs
// were patched: every entity, in sorted id order, through the Builder, which
// validates the whole graph. Graph and Patch are held to it.
func oracleGraph(a *Accumulator, horizon ival.Time) (*tgraph.Graph, error) {
	end := func(s *openSpan) ival.Time {
		e := ival.Infinity
		if s.closed {
			e = s.end
		}
		if horizon > 0 && e > horizon {
			e = horizon
		}
		return e
	}
	b := tgraph.NewBuilder(len(a.vspans), len(a.espans))
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
			for _, p := range entries {
				b.SetVertexProp(id, label, p.Interval, p.Value)
			}
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
		b.AddEdge(id, s.ends[0], s.ends[1], life)
		flushProps(a.eprops[id], a.eruns[id], life, func(label string, entries []tgraph.PropEntry) {
			for _, p := range entries {
				b.SetEdgeProp(id, label, p.Interval, p.Value)
			}
		})
	}
	return b.Build()
}

// sentinels are the errors a materialization can fail with.
var sentinels = []error{tgraph.ErrDuplicateVertex, tgraph.ErrDuplicateEdge, tgraph.ErrDanglingEdge,
	tgraph.ErrEdgeOutlives, tgraph.ErrPropOutlives, tgraph.ErrPropConflict, tgraph.ErrInvalidLifespan}

// patchStep patches the accumulator's state onto prev and holds the result to
// the oracle: equal graphs, or errors with the same sentinel. prev's snapshot
// bytes must not move. It returns the patched graph (nil after an error).
func patchStep(t *testing.T, a *Accumulator, prev *tgraph.Graph, horizon ival.Time) *tgraph.Graph {
	t.Helper()
	var before []byte
	if prev != nil {
		before = tgraph.EncodeSnapshot(prev, nil)
	}
	got, gerr := a.Patch(prev, horizon)
	want, werr := oracleGraph(a, horizon)
	if prev != nil && !bytes.Equal(tgraph.EncodeSnapshot(prev, nil), before) {
		t.Fatalf("Patch wrote into its predecessor")
	}
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil {
			t.Fatalf("patch error %v, oracle error %v", gerr, werr)
		}
		for _, s := range sentinels {
			if errors.Is(werr, s) && !errors.Is(gerr, s) {
				t.Fatalf("patch error %v, oracle error %v", gerr, werr)
			}
		}
		return nil
	}
	if err := tgraph.Equal(got, want); err != nil {
		t.Fatalf("patched epoch differs from the rebuild: %v", err)
	}
	return got
}

// TestEpochPatchMatchesRebuild replays generated graphs' event logs in seeded
// random batches of 1 to 20 ticks, unbounded and at a horizon half-way
// through the log: after every batch the patched epoch must equal the
// rebuild, and its predecessor must be untouched.
func TestEpochPatchMatchesRebuild(t *testing.T) {
	for _, p := range []gen.Profile{gen.MAGLike(0.1), gen.TwitterLike(0.1), gen.USRNLike(0.1)} {
		g, err := gen.Generate(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		evs := EventsOf(g)
		for _, horizon := range []ival.Time{0, evs[len(evs)-1].T / 2} {
			r := rand.New(rand.NewSource(int64(horizon) + 3))
			a := NewAccumulator()
			var prev *tgraph.Graph
			batches, patched := 0, 0
			for i := 0; i < len(evs); batches++ {
				// A batch is every event of the next 1 to 20 ticks.
				last := evs[i].T + ival.Time(r.Intn(20))
				for ; i < len(evs) && evs[i].T <= last; i++ {
					if err := a.Apply(evs[i]); err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
				}
				if prev != nil && prev == a.base {
					patched++
				}
				if prev = patchStep(t, a, prev, horizon); prev == nil {
					t.Fatalf("%s at horizon %d: batch %d did not materialize", p.Name, horizon, batches)
				}
			}
			if patched != batches-1 {
				t.Errorf("%s at horizon %d: %d of %d batches patched, want all but the first", p.Name, horizon, patched, batches)
			}
		}
	}
}

// FuzzEpochPatch decodes bytes into event batches over a few ids, applies the
// ones Preflight accepts, and after each holds the patched epoch to the
// rebuild. Byte 0 picks the horizon; then four bytes make an event: op (6
// ends the batch), time step, and two operands.
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
		var prev *tgraph.Graph
		var batch []Event
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
			batch = batch[:0]
			prev = patchStep(t, a, prev, horizon)
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
// the lifespans, so on an EventsOf log with one bad event injected — a
// reopen, a still-open add, an unknown owner, an event out of order, a vertex
// removed under an open edge — it fails at the index, with the error, at
// which applying the batch one event at a time to a clone first fails: the
// injected event, with its sentinel.
func TestPreflightMatchesApply(t *testing.T) {
	g, err := gen.Generate(gen.MAGLike(0.05), 5)
	if err != nil {
		t.Fatal(err)
	}
	evs := EventsOf(g)
	a := NewAccumulator()
	for _, ev := range evs[:len(evs)/2] {
		if err := a.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	batch := evs[len(evs)/2:]
	clone := func() *Accumulator {
		data, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		c, err := UnmarshalAccumulator(data)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	vertex := func(c *Accumulator, pick func(s *openSpan) bool) (tgraph.VertexID, bool) {
		for _, id := range sortedKeys(c.vspans) {
			if pick(c.vspans[id]) {
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
			id, ok := vertex(c, func(s *openSpan) bool { return s.closed })
			return Event{Op: AddVertex, T: c.Now(), V: id}, ok
		},
		"still open": func(c *Accumulator) (Event, bool) {
			id, ok := vertex(c, func(s *openSpan) bool { return !s.closed })
			return Event{Op: AddVertex, T: c.Now(), V: id}, ok
		},
		"unknown owner": func(c *Accumulator) (Event, bool) {
			return Event{Op: SetVertexProp, T: c.Now(), V: 1 << 40, Label: "w", Value: 1}, true
		},
		"out of order": func(c *Accumulator) (Event, bool) {
			return Event{Op: AddVertex, T: c.Now() - 1, V: 1 << 40}, c.Now() > 0
		},
		"removed under an open edge": func(c *Accumulator) (Event, bool) {
			id, ok := vertex(c, func(s *openSpan) bool { return !s.closed && s.open > 0 })
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
