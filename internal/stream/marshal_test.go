package stream

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// marshalFixture drives an accumulator into a state exercising every
// marshaled structure: closed and open spans, closed property entries,
// running values on both vertices and edges.
func marshalFixture(t testing.TB) *Accumulator {
	t.Helper()
	a := NewAccumulator()
	evs := []Event{
		{Op: AddVertex, T: 0, V: 1},
		{Op: AddVertex, T: 0, V: 2},
		{Op: AddVertex, T: 1, V: 30},
		{Op: SetVertexProp, T: 2, V: 1, Label: "color", Value: 7},
		{Op: AddEdge, T: 3, E: 100, Src: 1, Dst: 2},
		{Op: SetEdgeProp, T: 3, E: 100, Label: tgraph.PropTravelTime, Value: 1},
		{Op: SetEdgeProp, T: 4, E: 100, Label: tgraph.PropTravelCost, Value: 9},
		{Op: SetVertexProp, T: 5, V: 1, Label: "color", Value: 8}, // closes the first run
		{Op: AddEdge, T: 6, E: 101, Src: 2, Dst: 30},
		{Op: RemoveEdge, T: 7, E: 101}, // closed edge span
		{Op: RemoveVertex, T: 8, V: 30},
		{Op: SetEdgeProp, T: 9, E: 100, Label: tgraph.PropTravelCost, Value: 11},
	}
	for _, ev := range evs {
		if err := a.Apply(ev); err != nil {
			t.Fatalf("apply %+v: %v", ev, err)
		}
	}
	return a
}

// marshalTail is the further ingest TestAccumulatorMarshalRoundTrip applies
// to the fixture and its round trip.
var marshalTail = []Event{
	{Op: SetVertexProp, T: 12, V: 1, Label: "color", Value: 9},
	{Op: AddEdge, T: 13, E: 102, Src: 2, Dst: 1},
	{Op: RemoveEdge, T: 14, E: 102},
}

func TestAccumulatorMarshalRoundTrip(t *testing.T) {
	a := marshalFixture(t)
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic bytes.
	again, _ := a.MarshalBinary()
	if !bytes.Equal(data, again) {
		t.Fatal("marshal is not deterministic")
	}
	b, err := UnmarshalAccumulator(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if b.Events() != a.Events() || b.Now() != a.Now() {
		t.Fatalf("clock state lost: events %d/%d now %d/%d", b.Events(), a.Events(), b.Now(), a.Now())
	}

	// Identical materialization at several horizons, including unbounded.
	for _, horizon := range []ival.Time{0, 10, 100} {
		ga, errA := a.Graph(horizon)
		gb, errB := b.Graph(horizon)
		if errA != nil || errB != nil {
			t.Fatalf("materialize at %d: %v / %v", horizon, errA, errB)
		}
		if err := tgraph.Equal(ga, gb); err != nil {
			t.Fatalf("graphs at horizon %d diverge: %v", horizon, err)
		}
	}

	// Identical behavior under further ingest: apply the same tail to both.
	for _, ev := range marshalTail {
		if errA, errB := a.Apply(ev), b.Apply(ev); (errA == nil) != (errB == nil) {
			t.Fatalf("apply divergence on %+v: %v vs %v", ev, errA, errB)
		}
	}
	ga, errA := a.Graph(20)
	gb, errB := b.Graph(20)
	if errA != nil || errB != nil {
		t.Fatalf("post-tail materialize: %v / %v", errA, errB)
	}
	if err := tgraph.Equal(ga, gb); err != nil {
		t.Fatalf("post-tail graphs diverge: %v", err)
	}
}

func TestUnmarshalAccumulatorRejectsCorruption(t *testing.T) {
	a := marshalFixture(t)
	data, _ := a.MarshalBinary()
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := UnmarshalAccumulator(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		} else if !errors.Is(err, ErrStateCorrupt) {
			t.Fatalf("truncation to %d: untyped error %v", cut, err)
		}
	}
	// Future version.
	bad := append([]byte{accStateVersion + 1}, data[1:]...)
	if _, err := UnmarshalAccumulator(bad); !errors.Is(err, ErrStateCorrupt) {
		t.Fatalf("future state version: %v", err)
	}
}

// FuzzUnmarshalAccumulator: every input is rejected, or re-marshals to bytes
// that decode again to the same state. The seeds are the states
// TestAccumulatorMarshalRoundTrip marshals: empty, the fixture, and the
// fixture after its tail.
func FuzzUnmarshalAccumulator(f *testing.F) {
	empty, _ := NewAccumulator().MarshalBinary()
	f.Add(empty)
	a := marshalFixture(f)
	data, _ := a.MarshalBinary()
	f.Add(data)
	for _, ev := range marshalTail {
		if err := a.Apply(ev); err != nil {
			f.Fatal(err)
		}
	}
	data, _ = a.MarshalBinary()
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := UnmarshalAccumulator(data)
		if err != nil {
			return
		}
		enc, _ := a.MarshalBinary()
		b, err := UnmarshalAccumulator(enc)
		if err != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("state re-marshals as %x, which decodes differently (%v)", enc, err)
		}
	})
}
