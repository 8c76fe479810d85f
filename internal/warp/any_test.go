package warp

import (
	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// The differential tests state their instances, oracles and expectations in
// values — ints, strings, NaNs — as they did when a message was an any. This
// file is the boundary: it runs the word-valued operators on them and reads
// every group back through the Scratch that produced it, so a value outside
// the word palette takes the spill path and one inside it the inline path,
// and the tests compare what a program would read.

// anyTuple is a Tuple with its group read back as values.
type anyTuple struct {
	Interval ival.Interval
	State    Value
	Msgs     []Value
}

// anyCombine is a combiner over values.
type anyCombine func(a, b Value) Value

// anyScratch is a Scratch whose methods speak values.
type anyScratch struct{ Scratch }

// lift makes f a CombineFunc over the scratch's words: operands read back,
// the result converted or spilled like any other value entering the scratch.
func (s *anyScratch) lift(f anyCombine) CombineFunc {
	if f == nil {
		return nil
	}
	return func(a, b codec.Word) codec.Word {
		v := f(s.Payload(a), s.Payload(b))
		if w, ok := codec.WordOf(v); ok {
			return w
		}
		return s.Spill(v)
	}
}

// values reads tuples back.
func (s *anyScratch) values(tuples []Tuple) []anyTuple {
	var out []anyTuple
	for _, tu := range tuples {
		at := anyTuple{Interval: tu.Interval, State: tu.State}
		for _, w := range tu.Msgs {
			at.Msgs = append(at.Msgs, s.Payload(w))
		}
		out = append(out, at)
	}
	return out
}

// sweep aligns inner with outer behind the prefix dst. The sweep never reads
// a prefix tuple's group, so the prefix goes in with placeholder words and
// comes back as it was — but for its interval, which is copied back so that a
// sweep that merged into it is caught.
func (s *anyScratch) sweep(dst []anyTuple, outer, inner []IntervalValue, combine anyCombine, points bool) []anyTuple {
	pre := make([]Tuple, len(dst))
	for i, d := range dst {
		pre[i] = Tuple{Interval: d.Interval, State: d.State, Msgs: make([]codec.Word, len(d.Msgs))}
	}
	got := s.load(inner).Sweep(pre, outer, s.lift(combine), points)
	out := append([]anyTuple(nil), dst...)
	for i := range dst {
		out[i].Interval = got[i].Interval
	}
	return append(out, s.values(got[len(dst):])...)
}

func (s *anyScratch) Warp(dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
	return s.sweep(dst, outer, inner, nil, false)
}

func (s *anyScratch) WarpCombined(dst []anyTuple, outer, inner []IntervalValue, f anyCombine) []anyTuple {
	return s.sweep(dst, outer, inner, f, false)
}

func (s *anyScratch) PointGroups(dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
	return s.sweep(dst, outer, inner, nil, true)
}

func (s *anyScratch) PointGroupsCombined(dst []anyTuple, outer, inner []IntervalValue, f anyCombine) []anyTuple {
	return s.sweep(dst, outer, inner, f, true)
}

// The free functions, each on a fresh scratch as the package's are.

func anyWarp(outer, inner []IntervalValue) []anyTuple {
	return new(anyScratch).Warp(nil, outer, inner)
}

func anyWarpCombined(outer, inner []IntervalValue, f anyCombine) []anyTuple {
	return new(anyScratch).WarpCombined(nil, outer, inner, f)
}

func anyPointGroups(outer, inner []IntervalValue) []anyTuple {
	return new(anyScratch).PointGroups(nil, outer, inner)
}

func anyPointGroupsCombined(outer, inner []IntervalValue, f anyCombine) []anyTuple {
	return new(anyScratch).PointGroupsCombined(nil, outer, inner, f)
}
