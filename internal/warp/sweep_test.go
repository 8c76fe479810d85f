package warp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	ival "graphite/internal/interval"
)

// This file holds Scratch.Sweep to the sweeps it replaced (oracle_test.go):
// identical tuple slices — interval, state, group values in order — from all
// four entry points, on a hand-built torture table, seeded random instances
// and FuzzWarpOracle; then pins the fold-order contract and counts the work
// the sweep does, so neither can drift behind a commutative combiner or a
// fast machine.

// observe is the order-observing combiner: neither commutative nor
// associative, so the folded value spells out which values were combined, in
// which order, grouped how. Any reordering of a fold changes the string.
func observe(a, b Value) Value { return fmt.Sprintf("(%v %v)", a, b) }

// identical is equality without mercy: NaN equals NaN, 0 differs from −0.
func identical(a, b Value) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return reflect.DeepEqual(a, b)
}

func checkIdenticalTuples(t *testing.T, label string, got, want []anyTuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		same := got[i].Interval == want[i].Interval && identical(got[i].State, want[i].State) &&
			len(got[i].Msgs) == len(want[i].Msgs)
		for k := 0; same && k < len(got[i].Msgs); k++ {
			same = identical(got[i].Msgs[k], want[i].Msgs[k])
		}
		if !same {
			t.Fatalf("%s: tuple %d = %+v, want %+v\n got: %v\nwant: %v", label, i, got[i], want[i], got, want)
		}
	}
}

// entryPoints pairs each Scratch method with the oracle body it used to run.
var entryPoints = []struct {
	name   string
	sweep  func(s *anyScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple
	oracle func(o *oracleScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple
	free   func(outer, inner []IntervalValue) []anyTuple
}{
	{"Warp",
		func(s *anyScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
			return s.Warp(dst, outer, inner)
		},
		func(o *oracleScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
			return o.warp(dst, outer, inner, nil)
		},
		anyWarp},
	{"WarpCombined",
		func(s *anyScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
			return s.WarpCombined(dst, outer, inner, observe)
		},
		func(o *oracleScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
			return o.warp(dst, outer, inner, observe)
		},
		func(outer, inner []IntervalValue) []anyTuple { return anyWarpCombined(outer, inner, observe) }},
	{"PointGroups",
		func(s *anyScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
			return s.PointGroups(dst, outer, inner)
		},
		func(o *oracleScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
			return o.pointGroups(dst, outer, inner, nil)
		},
		anyPointGroups},
	{"PointGroupsCombined",
		func(s *anyScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
			return s.PointGroupsCombined(dst, outer, inner, observe)
		},
		func(o *oracleScratch, dst []anyTuple, outer, inner []IntervalValue) []anyTuple {
			return o.pointGroups(dst, outer, inner, observe)
		},
		func(outer, inner []IntervalValue) []anyTuple { return anyPointGroupsCombined(outer, inner, observe) }},
}

// checkAgainstOracle requires every entry point to reproduce its oracle
// exactly: from the free function, from one scratch reused (dirty) across all
// of them, and appending behind a dst prefix that touches the first tuple —
// which maximality must neither merge into nor rewrite.
func checkAgainstOracle(t *testing.T, outer, inner []IntervalValue) {
	t.Helper()
	var s anyScratch
	var o oracleScratch
	for _, e := range entryPoints {
		want := e.oracle(&o, nil, outer, inner)
		checkIdenticalTuples(t, e.name, e.free(outer, inner), want)
		checkIdenticalTuples(t, "Scratch."+e.name, e.sweep(&s, nil, outer, inner), want)

		prefix := anyTuple{Interval: ival.New(-5, 0), State: 0, Msgs: []Value{0}}
		if len(want) > 0 {
			// Bait: the prefix meets the first tuple with its state and group.
			prefix = anyTuple{Interval: ival.New(want[0].Interval.Start-1, want[0].Interval.Start),
				State: want[0].State, Msgs: append([]Value(nil), want[0].Msgs...)}
		}
		got := e.sweep(&s, []anyTuple{prefix}, outer, inner)
		wantDst := e.oracle(&o, []anyTuple{prefix}, outer, inner)
		checkIdenticalTuples(t, "Scratch."+e.name+"(dst)", got, wantDst)
		checkIdenticalTuples(t, "Scratch."+e.name+"(dst) vs nil dst", got[1:], want)
	}
}

func TestSweepTortureTable(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	inf := ival.Infinity
	var hub []IntervalValue // 40 messages over 4 starts: past the insertion-sort cutoff, ties everywhere
	for i := 0; i < 40; i++ {
		hub = append(hub, IntervalValue{iv(ival.Time(3-i%4), ival.Time(5+i%7)), i})
	}
	cases := []struct {
		name         string
		outer, inner []IntervalValue
	}{
		{"unit and touching messages",
			[]IntervalValue{{iv(0, 10), "s"}},
			[]IntervalValue{{iv(2, 3), "a"}, {iv(3, 4), "a"}, {iv(4, 5), "b"}, {iv(3, 4), "c"}, {iv(5, 6), "b"}}},
		{"till-infinity on both sides",
			[]IntervalValue{{iv(0, 5), "x"}, {iv(5, inf), "y"}},
			[]IntervalValue{{iv(3, inf), 1}, {iv(0, inf), 2}, {iv(7, inf), 1}, {iv(5, inf), 3}}},
		{"gaps between state partitions",
			[]IntervalValue{{iv(0, 3), "p"}, {iv(5, 8), "q"}, {iv(12, inf), "r"}},
			[]IntervalValue{{iv(1, 6), 1}, {iv(2, 13), 2}, {iv(4, 5), 3}, {iv(3, 5), 4}, {iv(8, 12), 5}, {iv(9, 20), 6}}},
		{"message starts at a partition's end, ends at a partition's start",
			[]IntervalValue{{iv(0, 5), "p"}, {iv(5, 10), "q"}},
			[]IntervalValue{{iv(5, 7), 1}, {iv(2, 5), 2}, {iv(10, 12), 3}, {iv(-3, 0), 4}}},
		{"message bridging exactly a gap",
			[]IntervalValue{{iv(0, 5), "p"}, {iv(7, 10), "q"}},
			[]IntervalValue{{iv(5, 7), 1}, {iv(7, 8), 2}, {iv(3, 7), 3}, {iv(4, 8), 4}}},
		{"empty intervals on both sides",
			[]IntervalValue{{iv(0, 4), "p"}, {ival.Empty, "e"}, {iv(9, 2), "e"}, {iv(4, 8), "q"}},
			[]IntervalValue{{ival.Empty, 1}, {iv(4, 4), 2}, {iv(5, 3), 3}, {iv(2, 6), 4}, {ival.Empty, 5}}},
		{"only empty messages",
			[]IntervalValue{{iv(0, 4), "p"}},
			[]IntervalValue{{ival.Empty, 1}, {iv(4, 4), 2}}},
		{"duplicate messages",
			[]IntervalValue{{iv(0, 10), "s"}},
			[]IntervalValue{{iv(1, 4), 7}, {iv(1, 4), 7}, {iv(1, 4), 7}, {iv(4, 6), 7}}},
		{"equal starts, different ends",
			[]IntervalValue{{iv(0, 6), "p"}, {iv(6, inf), "q"}},
			[]IntervalValue{{iv(2, 9), "a"}, {iv(2, 4), "b"}, {iv(2, inf), "c"}, {iv(2, 3), "d"}, {iv(2, 9), "e"}}},
		{"adjacent partitions with equal state values",
			[]IntervalValue{{iv(0, 5), 1}, {iv(5, 10), 1}, {iv(10, 15), 2}, {iv(15, inf), 2}},
			[]IntervalValue{{iv(0, 15), "m"}, {iv(3, 12), "n"}, {iv(12, inf), "o"}}},
		{"NaN payloads never merge",
			[]IntervalValue{{iv(0, 10), nan}, {iv(10, 20), nan}},
			[]IntervalValue{{iv(0, 5), nan}, {iv(5, 12), nan}, {iv(0, 20), 1.5}}},
		{"signed zeros merge and keep the earlier one",
			[]IntervalValue{{iv(0, 10), 0.0}, {iv(10, 20), negZero}},
			[]IntervalValue{{iv(0, 5), 0.0}, {iv(5, 12), negZero}, {iv(12, 20), 0.0}}},
		{"messages wholly before and after the partitions",
			[]IntervalValue{{iv(10, 20), "s"}},
			[]IntervalValue{{iv(0, 10), 1}, {iv(20, 30), 2}, {iv(0, 3), 3}, {iv(12, 14), 4}, {iv(25, inf), 5}}},
		{"hub inbox with ties",
			[]IntervalValue{{iv(0, 4), "p"}, {iv(4, 6), "q"}, {iv(8, inf), "r"}},
			hub},
		// Outside the documented contract (outer must be temporally
		// partitioned), but public Warp has always aligned each partition on
		// its own; the sweep restarts rather than silently dropping messages.
		{"outer out of order",
			[]IntervalValue{{iv(5, 10), "q"}, {iv(0, 5), "p"}, {iv(10, 12), "r"}},
			[]IntervalValue{{iv(2, 7), 1}, {iv(0, inf), 2}, {iv(6, 11), 3}}},
		{"outer overlapping",
			[]IntervalValue{{iv(0, 10), "p"}, {iv(5, 15), "q"}},
			[]IntervalValue{{iv(2, 7), 1}, {iv(8, 12), 2}, {iv(1, 3), 3}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAgainstOracle(t, c.outer, c.inner) })
	}
}

// oracleInstance draws a partitioned outer set (gaps, repeated state values,
// maybe unbounded) and 1–maxMsgs messages of every class, ties included.
func oracleInstance(r *rand.Rand, maxMsgs int) (outer, inner []IntervalValue) {
	cur := ival.Time(r.Intn(6))
	for p, n := 0, 1+r.Intn(6); p < n; p++ {
		cur += ival.Time(r.Intn(3) / 2 * r.Intn(4)) // a gap before one partition in three
		end := cur + ival.Time(1+r.Intn(8))
		if p == n-1 && r.Intn(2) == 0 {
			end = ival.Infinity
		}
		outer = append(outer, IntervalValue{ival.New(cur, end), r.Intn(2)})
		cur = end
	}
	for m, n := 0, 1+r.Intn(maxMsgs); m < n; m++ {
		s := ival.Time(r.Intn(40))
		var when ival.Interval
		switch r.Intn(6) {
		case 0:
			when = ival.From(s)
		case 1:
			when = ival.Point(s)
		case 2:
			when = ival.New(s, s) // empty
		default:
			when = ival.New(s, s+ival.Time(1+r.Intn(12)))
		}
		inner = append(inner, IntervalValue{when, r.Intn(3)})
	}
	return outer, inner
}

// TestSweepMatchesOracleSeeded is the differential test proper, and the test
// of the fold-order contract: the combiner is observe, so a fold that visits
// the same messages in another order is a different string.
func TestSweepMatchesOracleSeeded(t *testing.T) {
	r := rand.New(rand.NewSource(20260925))
	for i := 0; i < 600; i++ {
		outer, inner := oracleInstance(r, 64)
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			t.Logf("outer=%v inner=%v", outer, inner)
			checkAgainstOracle(t, outer, inner)
		})
	}
}

// TestFoldOrderContract states the order contract on an inbox large enough
// that an unstable sort would scramble it: 48 messages over three starts.
func TestFoldOrderContract(t *testing.T) {
	outer := []IntervalValue{{ival.Universe, "s"}}
	var inner []IntervalValue
	var byStart [3]string // arrival order within each start
	arrival := ""         // arrival order overall
	for i := 0; i < 48; i++ {
		start := 2 - i%3
		name := fmt.Sprintf("m%02d", i)
		inner = append(inner, IntervalValue{ival.From(ival.Time(start)), name})
		byStart[start] += name
		arrival += name
	}
	concat := func(a, b Value) Value { return a.(string) + b.(string) }

	got := anyWarpCombined(outer, inner, concat)
	if n := len(got); n != 3 || got[n-1].Msgs[0] != byStart[0]+byStart[1]+byStart[2] {
		t.Errorf("WarpCombined folds in (start, arrival) order; got %v", got)
	}
	got = anyPointGroupsCombined(outer, inner, concat)
	if n := len(got); n != 3 || got[n-1].Msgs[0] != arrival {
		t.Errorf("PointGroupsCombined folds in arrival order; got %v", got)
	}
	for name, tuples := range map[string][]anyTuple{"Warp": anyWarp(outer, inner), "PointGroups": anyPointGroups(outer, inner)} {
		group := ""
		for _, v := range tuples[len(tuples)-1].Msgs {
			group += v.(string)
		}
		if group != arrival {
			t.Errorf("%s lists a group in arrival order; got %v", name, tuples[len(tuples)-1].Msgs)
		}
	}
}

// TestSweepWorkCounts is the machine-independent cost gate: combine calls
// under a counting combiner, and the sweep's working set between partitions.
func TestSweepWorkCounts(t *testing.T) {
	calls := 0
	counting := func(a, b Value) Value {
		calls++
		return min(a.(int), b.(int))
	}
	tillInf := func(m int) []IntervalValue {
		var inner []IntervalValue
		for i := 0; i < m; i++ { // distinct starts, arriving in no particular order
			inner = append(inner, IntervalValue{ival.From(ival.Time(i * 7 % m)), i})
		}
		return inner
	}
	var s anyScratch

	// The path algorithms' inbox: every newcomer extends the running fold.
	for _, m := range []int{1, 2, 8, 59, 200} {
		calls = 0
		s.WarpCombined(nil, []IntervalValue{{ival.Universe, 0}}, tillInf(m), counting)
		if calls != m-1 {
			t.Errorf("%d till-∞ messages over one partition: %d combines, want %d", m, calls, m-1)
		}
	}

	// Crossing a partition seam must not cost a fold of the whole group.
	for _, k := range []int{2, 3, 16} {
		const m = 24
		var outer []IntervalValue
		for p := 0; p < k; p++ {
			outer = append(outer, IntervalValue{iv(ival.Time(p*m/k), ival.Time((p+1)*m/k)), p})
		}
		outer[k-1].Interval.End = ival.Infinity
		calls = 0
		s.WarpCombined(nil, outer, tillInf(m), counting)
		if calls > k*m {
			t.Errorf("%d partitions × %d till-∞ messages: %d combines, want ≤ %d", k, m, calls, k*m)
		}
		t.Logf("%d partitions × %d till-∞ messages: %d combines", k, m, calls)
	}

	// A retirement costs at most one refold of the survivors.
	{
		const m = 10
		inner := append(tillInf(m), IntervalValue{iv(0, 50), -1}) // outlives every admission, then retires
		calls = 0
		s.WarpCombined(nil, []IntervalValue{{ival.Universe, 0}}, inner, counting)
		if admissions, refold := m, m-1; calls > admissions+refold {
			t.Errorf("one retirement among %d survivors: %d combines, want ≤ %d", m, calls, admissions+refold)
		}
	}

	// The suppressed path on PageRank's traffic: d unit messages per point
	// fold with d−1 combines, whatever the number of state partitions.
	{
		var outer, inner []IntervalValue
		for p := 0; p < 16; p++ {
			outer = append(outer, IntervalValue{ival.Point(ival.Time(p)), p})
			for d := 0; d < 4; d++ {
				inner = append(inner, IntervalValue{ival.Point(ival.Time((p + 5*d) % 16)), p*4 + d})
			}
		}
		calls = 0
		s.PointGroupsCombined(nil, outer, inner, counting)
		if want := 16 * (4 - 1); calls != want {
			t.Errorf("4 unit messages on each of 16 points: %d combines, want %d", calls, want)
		}
	}

	// The working set: once the sweep is through partition j−1, what it still
	// holds is exactly the admitted messages that reach that partition's end.
	// A message that ended inside an earlier partition is gone — no later
	// partition re-clips, re-filters or re-folds it; one that ends on the
	// seam or in the gap behind it costs the next partition's first step one
	// look, to retire it.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		outer, inner := oracleInstance(r, 32)
		for j := 1; j <= len(outer); j++ {
			through := outer[j-1].Interval.End
			s.active = s.active[:0] // a sweep with nothing to align returns before touching it
			s.Warp(nil, outer[:j], inner)
			var want []int
			for i, m := range inner {
				if !m.Interval.IsEmpty() && m.Interval.Start < through && m.Interval.End >= through {
					want = append(want, i)
				}
			}
			var held []int
			for _, r := range s.active {
				held = append(held, arrivalOf(r.idx, inner))
			}
			if !reflect.DeepEqual(held, want) {
				t.Fatalf("outer=%v inner=%v: after partition %d the sweep holds messages %v, want %v",
					outer, inner, j-1, held, want)
			}
		}
	}
}

// arrivalOf maps a ref's index back to a position in inner (refs number the
// non-empty messages only).
func arrivalOf(idx int, inner []IntervalValue) int {
	n := -1
	for i, m := range inner {
		if !m.Interval.IsEmpty() {
			n++
		}
		if n == idx {
			return i
		}
	}
	return -1
}

// decodeOracleCase is decodeWarpCase with a wider net: up to six partitions
// drawn from two state values (so equal neighbours occur), up to 47 messages
// (past the insertion-sort cutoff), and now and then two partitions swapped.
func decodeOracleCase(data []byte) (outer, inner []IntervalValue) {
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
	for p, n := 0, 1+int(next()%6); p < n; p++ {
		cur += ival.Time(next() % 3)
		end := cur + ival.Time(1+next()%5)
		if p == n-1 && next()%4 == 0 {
			end = ival.Infinity
		}
		outer = append(outer, IntervalValue{ival.New(cur, end), int(next() % 2)})
		cur = end
	}
	if swap := int(next()); swap%8 == 0 && len(outer) > 1 {
		a, b := swap/8%len(outer), swap/64%len(outer)
		outer[a], outer[b] = outer[b], outer[a]
	}
	for m, n := 0, int(next()%48); m < n; m++ {
		s := ival.Time(next() % 24)
		e := s + ival.Time(next()%6)
		if next()%8 == 0 {
			e = ival.Infinity
		}
		inner = append(inner, IntervalValue{ival.New(s, e), int(next() % 3)})
	}
	return outer, inner
}

// FuzzWarpOracle is the coverage-guided differential: whatever instance the
// bytes decode to, all four entry points must reproduce the replaced sweeps
// tuple for tuple. Run with `make fuzz` or
// `go test -run=^$ -fuzz=FuzzWarpOracle ./internal/warp`.
func FuzzWarpOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 3, 1, 1, 2, 0, 5, 1, 3, 2, 4, 0, 1, 9, 8, 0, 3, 2, 1})
	f.Add([]byte{0, 5, 1, 4, 2, 0, 0, 1, 0, 1, 0, 6, 1, 4, 3, 1, 0, 0, 1, 12, 1, 7, 2, 5, 4, 0, 8, 40, 3, 2, 1, 3, 0, 0, 5, 5, 8})
	f.Add([]byte{3, 1, 0, 2, 0, 7, 15, 4, 8, 2, 0, 0, 1, 1, 8, 3, 200, 17, 9, 33, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		outer, inner := decodeOracleCase(data)
		checkAgainstOracle(t, outer, inner)
	})
}
