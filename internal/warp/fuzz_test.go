package warp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	ival "graphite/internal/interval"
)

// This file pins every warp entry point against the per-time-point oracle of
// warp_test.go on fuzzer-chosen inputs: the four Sec. IV-B guarantees for
// Warp, WarpCombined ≡ Warp + fold, PointGroups ≡ Warp point-wise (and
// exactly, on unit-length inputs), and the Scratch methods ≡ the free
// functions — including scratch reuse across calls and append-into-dst, the
// two behaviours the allocation-free runtime workspaces depend on.

// decodeWarpCase turns a fuzzer byte string into a valid warp instance: a
// temporally partitioned outer set (possibly with gaps, possibly unbounded)
// and an arbitrary inner set (unit, empty, and unbounded intervals included).
// All finite boundaries stay below 48 so samplePoints covers them.
func decodeWarpCase(data []byte) (outer, inner []IntervalValue) {
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	cur := ival.Time(next() % 4)
	for p, n := 0, 1+int(next()%4); p < n; p++ {
		cur += ival.Time(next() % 3) // occasional gap between partitions
		end := cur + ival.Time(1+next()%5)
		if p == n-1 && next()%4 == 0 {
			end = ival.Infinity
		}
		outer = append(outer, IntervalValue{ival.New(cur, end), int(next() % 3)})
		cur = end
	}
	for m, n := 0, int(next()%8); m < n; m++ {
		s := ival.Time(next() % 16)
		e := s + ival.Time(next()%5) // width 0 makes an empty interval
		if next()%8 == 0 {
			e = ival.Infinity
		}
		inner = append(inner, IntervalValue{ival.New(s, e), int(next() % 4)})
	}
	return outer, inner
}

// intSum is the differential combiner: commutative and associative, and —
// unlike min — not idempotent, so a duplicated or dropped group member
// changes the fold and gets caught.
func intSum(a, b Value) Value { return a.(int) + b.(int) }

// tupleAt returns the tuple covering tp, if any, and how many do.
func tupleAt(out []anyTuple, tp ival.Time) (anyTuple, int) {
	var hit anyTuple
	hits := 0
	for _, tu := range out {
		if tu.Interval.Contains(tp) {
			hit = tu
			hits++
		}
	}
	return hit, hits
}

// checkCombinedMatchesFold checks comb ≡ plain with each group folded, point
// by point. Tuple lists are not compared directly: folding can make adjacent
// groups equal and merge tuples that plain warp keeps apart.
func checkCombinedMatchesFold(t *testing.T, label string, plain, comb []anyTuple, fold anyCombine) {
	t.Helper()
	for _, tp := range samplePoints {
		p, pn := tupleAt(plain, tp)
		c, cn := tupleAt(comb, tp)
		if pn != cn || pn > 1 {
			t.Fatalf("%s: t=%d covered by %d plain and %d combined tuples", label, tp, pn, cn)
		}
		if pn == 0 {
			continue
		}
		if len(c.Msgs) != 1 {
			t.Fatalf("%s: t=%d: combined group holds %d values, want 1", label, tp, len(c.Msgs))
		}
		want := p.Msgs[0]
		for _, m := range p.Msgs[1:] {
			want = fold(want, m)
		}
		if !reflect.DeepEqual(c.State, p.State) || !reflect.DeepEqual(c.Msgs[0], want) {
			t.Fatalf("%s: t=%d: got (%v, %v), want (%v, %v)", label, tp, c.State, c.Msgs[0], p.State, want)
		}
	}
}

// checkPointwiseEqual checks that two warp outputs agree at every sample
// point: same coverage, same state, same message multiset.
func checkPointwiseEqual(t *testing.T, label string, a, b []anyTuple) {
	t.Helper()
	for _, tp := range samplePoints {
		ta, na := tupleAt(a, tp)
		tb, nb := tupleAt(b, tp)
		if na > 1 || nb > 1 {
			t.Fatalf("%s: t=%d covered by %d/%d tuples, want at most 1", label, tp, na, nb)
		}
		if na != nb {
			t.Fatalf("%s: t=%d covered by %d tuples on one side, %d on the other", label, tp, na, nb)
		}
		if na == 1 && (!reflect.DeepEqual(ta.State, tb.State) || !multisetEqual(ta.Msgs, tb.Msgs)) {
			t.Fatalf("%s: t=%d: (%v, %v) vs (%v, %v)", label, tp, ta.State, ta.Msgs, tb.State, tb.Msgs)
		}
	}
}

// checkSameTuples requires structural equality: the scratch methods run the
// same sweep as the free functions, so intervals, states, and group order
// must all match.
func checkSameTuples(t *testing.T, label string, got, want []anyTuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Interval != want[i].Interval || !reflect.DeepEqual(got[i].State, want[i].State) ||
			!reflect.DeepEqual(got[i].Msgs, want[i].Msgs) {
			t.Fatalf("%s: tuple %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// expandToPoints flattens bounded warp tuples into unit tuples, one per
// time-point. Callers must ensure the tuples are bounded.
func expandToPoints(out []anyTuple) []anyTuple {
	var pts []anyTuple
	for _, tu := range out {
		for tp := tu.Interval.Start; tp < tu.Interval.End; tp++ {
			pts = append(pts, anyTuple{Interval: ival.Point(tp), State: tu.State, Msgs: tu.Msgs})
		}
	}
	return pts
}

// checkWarpBattery runs every cross-check on one instance.
func checkWarpBattery(t *testing.T, outer, inner []IntervalValue) {
	t.Helper()

	plain := anyWarp(outer, inner)
	checkWarpProperties(t, outer, inner, plain)

	comb := anyWarpCombined(outer, inner, intSum)
	checkCombinedMatchesFold(t, "WarpCombined", plain, comb, intSum)

	pg := anyPointGroups(outer, inner)
	checkPointwiseEqual(t, "PointGroups", plain, pg)

	pgc := anyPointGroupsCombined(outer, inner, intSum)
	checkCombinedMatchesFold(t, "PointGroupsCombined", plain, pgc, intSum)

	// Scratch methods must match the free functions even on a dirty scratch:
	// the per-worker workspaces reuse one scratch for every vertex.
	var s anyScratch
	s.Warp(nil, outer, inner) // dirty the buffers with a first pass
	checkSameTuples(t, "Scratch.Warp", s.Warp(nil, outer, inner), plain)
	checkSameTuples(t, "Scratch.WarpCombined", s.WarpCombined(nil, outer, inner, intSum), comb)
	checkSameTuples(t, "Scratch.PointGroups", s.PointGroups(nil, outer, inner), pg)
	checkSameTuples(t, "Scratch.PointGroupsCombined", s.PointGroupsCombined(nil, outer, inner, intSum), pgc)

	// Appending into a caller-supplied dst must leave the prefix untouched —
	// maximality may never merge into tuples the caller passed in.
	sentinel := anyTuple{Interval: ival.Point(9999), State: "sentinel", Msgs: []Value{"keep"}}
	withDst := s.Warp([]anyTuple{sentinel}, outer, inner)
	if !reflect.DeepEqual(withDst[0], sentinel) {
		t.Fatalf("Scratch.Warp rewrote the caller's dst prefix: %+v", withDst[0])
	}
	checkSameTuples(t, "Scratch.Warp(dst)", withDst[1:], plain)

	// On unit-length inner tuples, point-groups is warp without sharing:
	// flattening warp's output to unit tuples reproduces it tuple for tuple
	// (group order may differ where warp merged equal multisets).
	unit := make([]IntervalValue, 0, len(inner))
	for _, m := range inner {
		if m.Interval.IsEmpty() {
			continue
		}
		unit = append(unit, IntervalValue{ival.Point(m.Interval.Start), m.Value})
	}
	wu := expandToPoints(anyWarp(outer, unit))
	pu := anyPointGroups(outer, unit)
	if len(wu) != len(pu) {
		t.Fatalf("unit input: %d expanded warp points, %d point-group tuples", len(wu), len(pu))
	}
	for i := range wu {
		if wu[i].Interval != pu[i].Interval || !reflect.DeepEqual(wu[i].State, pu[i].State) ||
			!multisetEqual(wu[i].Msgs, pu[i].Msgs) {
			t.Fatalf("unit input: point %d: warp %+v, point-groups %+v", i, wu[i], pu[i])
		}
	}
}

// FuzzWarp is the coverage-guided entry: the byte string decodes into a warp
// instance and the full battery must hold. Run with `make fuzz` or
// `go test -run=^$ -fuzz=FuzzWarp ./internal/warp`.
func FuzzWarp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 3, 1, 1, 2, 0, 5, 1, 3, 2, 4, 0, 1, 9, 8, 0, 3, 2, 1})
	f.Add([]byte{0, 3, 1, 4, 2, 0, 2, 1, 0, 1, 0, 6, 2, 4, 3, 7, 0, 0, 1, 12, 1, 7, 2, 5, 4, 0, 3})
	f.Add([]byte{3, 1, 0, 2, 0, 7, 15, 4, 8, 2, 0, 0, 1, 1, 8, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		outer, inner := decodeWarpCase(data)
		checkWarpBattery(t, outer, inner)
	})
}

// TestWarpBatterySeeded runs the same battery over deterministic random
// instances, so the cross-checks run on every plain `go test` too.
func TestWarpBatterySeeded(t *testing.T) {
	r := rand.New(rand.NewSource(20260805))
	for i := 0; i < 250; i++ {
		outer, inner := randInstance(r)
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			t.Logf("outer=%v inner=%v", outer, inner)
			checkWarpBattery(t, outer, inner)
		})
	}
}
