package core

import (
	"slices"
	"testing"

	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

func seedParts(t *testing.T, life ival.Interval, sets ...[3]int64) *PartitionedState {
	t.Helper()
	st := NewPartitionedState(life, int64(-1))
	for _, s := range sets {
		if err := st.Set(ival.New(ival.Time(s[0]), ival.Time(s[1])), s[2]); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	return st
}

func requireParts(t *testing.T, st *PartitionedState, want ...[3]int64) {
	t.Helper()
	parts := st.Parts()
	if len(parts) != len(want) {
		t.Fatalf("parts = %v, want %d entries", parts, len(want))
	}
	for i, w := range want {
		if parts[i].Interval != ival.New(ival.Time(w[0]), ival.Time(w[1])) || parts[i].Value != w[2] {
			t.Fatalf("part %d = %v=%v, want [%d,%d)=%d", i, parts[i].Interval, parts[i].Value, w[0], w[1], w[2])
		}
	}
}

func TestOverlaySeedExtendsFinalPartition(t *testing.T) {
	// A vertex whose lifespan grew from [0,10) to [0,20): the seed's final
	// value carries across the extension.
	st := NewPartitionedState(ival.New(0, 20), int64(-1))
	seed := seedParts(t, ival.New(0, 10), [3]int64{0, 4, 7}, [3]int64{4, 10, 3})
	if err := overlaySeed(st, seed); err != nil {
		t.Fatalf("overlaySeed: %v", err)
	}
	requireParts(t, st, [3]int64{0, 4, 7}, [3]int64{4, 20, 3})
}

func TestOverlaySeedClipsToNewLifespan(t *testing.T) {
	// A lifespan that shrank (entity absent from part of the new window):
	// seed partitions clip, no extension beyond the new end when the seed
	// already covers it.
	st := NewPartitionedState(ival.New(2, 8), int64(-1))
	seed := seedParts(t, ival.New(0, 10), [3]int64{0, 4, 7}, [3]int64{4, 10, 3})
	if err := overlaySeed(st, seed); err != nil {
		t.Fatalf("overlaySeed: %v", err)
	}
	requireParts(t, st, [3]int64{2, 4, 7}, [3]int64{4, 8, 3})
}

func TestOverlaySeedUniformValueFuses(t *testing.T) {
	// Overlaying a seed equal to the init value must leave one canonical
	// partition, not a split one — bit-identity depends on fusion.
	st := NewPartitionedState(ival.New(0, 20), int64(-1))
	seed := seedParts(t, ival.New(0, 10))
	if err := overlaySeed(st, seed); err != nil {
		t.Fatalf("overlaySeed: %v", err)
	}
	requireParts(t, st, [3]int64{0, 20, -1})
}

func TestSeedAlignsByVertexID(t *testing.T) {
	build := func(ids ...int64) *tgraph.Graph {
		b := tgraph.NewBuilder(len(ids), 0)
		for _, id := range ids {
			b.AddVertex(tgraph.VertexID(id), ival.New(0, 10))
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return g
	}
	prior := build(1, 3)
	next := build(1, 2, 3)
	r := &Result{Graph: prior, states: []*PartitionedState{
		seedParts(t, ival.New(0, 10), [3]int64{0, 10, 5}),
		seedParts(t, ival.New(0, 10), [3]int64{0, 10, 9}),
	}}
	seeds := r.Seed().StatesFor(next)
	if len(seeds) != 3 {
		t.Fatalf("len(seeds) = %d", len(seeds))
	}
	if seeds[0] == nil || seeds[0].Parts()[0].Value != int64(5) {
		t.Errorf("vertex 1 seed = %v", seeds[0])
	}
	if seeds[1] != nil {
		t.Errorf("vertex 2 (absent from prior) should be unseeded")
	}
	if seeds[2] == nil || seeds[2].Parts()[0].Value != int64(9) {
		t.Errorf("vertex 3 seed = %v", seeds[2])
	}
}

// TestSeedOverCoversWhatTheOverlayLays pins the one walk overlaySeed and the
// superstep-1 absorb check share: the seed parts over an interval of the
// seeded vertex's lifespan, the last one standing for the lifespan's growth
// past the seed, and no answer where the overlay leaves Init's value.
func TestSeedOverCoversWhatTheOverlayLays(t *testing.T) {
	seed := seedParts(t, ival.New(5, 10), [3]int64{5, 7, 7}, [3]int64{7, 10, 3})
	for _, tc := range []struct {
		life, x ival.Interval
		want    []int64 // the values of the parts returned; nil: not covered
	}{
		{ival.New(0, 20), ival.New(5, 8), []int64{7, 3}},
		{ival.New(0, 20), ival.New(6, 7), []int64{7}},
		{ival.New(0, 20), ival.New(8, 20), []int64{3}},  // the growth past the seed
		{ival.New(0, 20), ival.New(12, 15), []int64{3}}, // inside the growth alone
		{ival.New(0, 20), ival.New(4, 8), nil},          // a point before the seed
		{ival.New(0, 20), ival.New(6, 6), nil},          // empty
		{ival.New(12, 20), ival.New(12, 15), nil},       // the seed ends before life begins
	} {
		parts, ok := seedOver(seed, tc.life, tc.x)
		var got []int64
		for _, p := range parts {
			got = append(got, p.Value.(int64))
		}
		if ok != (tc.want != nil) || !slices.Equal(got, tc.want) {
			t.Errorf("seedOver(life %v, x %v) = %v, %v; want %v", tc.life, tc.x, got, ok, tc.want)
		}
	}
}
