package warp

import (
	"math"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// TestSameWordIsValueEqual holds the comparison maximality makes between two
// messages of a set to the one it made when they were values: on every pair
// drawn from the places the two could differ — nil, the zeros, NaN, the
// infinities, an int64 against the float64 of the same number, the ends of
// int64, pairs apart in one field, and equal slices spilled to two slots.
func TestSameWordIsValueEqual(t *testing.T) {
	vals := []any{
		nil, int64(0), int64(1), int64(math.MinInt64), int64(math.MaxInt64),
		0.0, math.Copysign(0, -1), 1.0, math.NaN(), math.Inf(1), math.Inf(-1),
		codec.Int64Pair{}, codec.Int64Pair{A: 1}, codec.Int64Pair{B: 1}, codec.Int64Pair{A: 1, B: 1},
		[]int64{1, 2}, []int64{1, 2}, []int64{1, 3}, []int64(nil), []int64{},
		0, "0", [2]int64{0, 0}, struct{ A, B int64 }{},
	}
	var s Scratch
	words := make([]codec.Word, len(vals))
	for i, v := range vals {
		w, ok := codec.WordOf(v)
		if !ok {
			w = s.Spill(v)
		}
		words[i] = w
	}
	for i, a := range vals {
		for j, b := range vals {
			if got, want := s.sameWord(words[i], words[j]), valueEqual(a, b); got != want {
				t.Errorf("sameWord(%#v, %#v) = %v, valueEqual says %v", a, b, got, want)
			}
		}
	}
}

// TestMaximalityComparesSpilledValues: two adjacent segments whose single
// messages are different spilled slices with equal contents are one tuple —
// the comparison is of what the words stand for, not of their slots — and a
// third with other contents is not merged.
func TestMaximalityComparesSpilledValues(t *testing.T) {
	var s Scratch
	outer := []IntervalValue{{ival.New(0, 30), "s"}}
	inner := []IntervalValue{
		{ival.New(0, 10), []int64{4, 2}},
		{ival.New(10, 20), []int64{4, 2}},
		{ival.New(20, 30), []int64{4, 3}},
	}
	got := s.Warp(nil, outer, inner)
	if len(got) != 2 || got[0].Interval != ival.New(0, 20) || got[1].Interval != ival.New(20, 30) {
		t.Fatalf("warp = %v, want [0, 20) and [20, 30)", got)
	}
	if a, b := got[0].Msgs[0], got[1].Msgs[0]; a.K != codec.KindSpill || b.K != codec.KindSpill || a.A == b.A {
		t.Fatalf("groups %v and %v: want two spilled words in different slots", a, b)
	}
	if v := s.Payload(got[0].Msgs[0]).([]int64); len(v) != 2 || v[1] != 2 {
		t.Errorf("merged tuple's message reads back as %v", v)
	}
}
