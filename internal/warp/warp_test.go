package warp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	ival "graphite/internal/interval"
)

func iv(s, e ival.Time) ival.Interval { return ival.New(s, e) }

// fig3 builds an instance shaped like Fig. 3 of the paper: three partitioned
// states and five messages with intersection boundaries {0,2,4,5,7,9,10}.
func fig3() (outer, inner []IntervalValue) {
	outer = []IntervalValue{
		{iv(0, 5), "s1"},
		{iv(5, 9), "s2"},
		{iv(9, 12), "s3"},
	}
	inner = []IntervalValue{
		{iv(0, 4), "m1"},
		{iv(2, 7), "m2"},
		{iv(7, 10), "m3"},
		{iv(9, 10), "m4"},
		{iv(4, 9), "m5"},
	}
	return
}

func TestWarpFig3(t *testing.T) {
	outer, inner := fig3()
	got := anyWarp(outer, inner)
	want := []anyTuple{
		{iv(0, 2), "s1", []Value{"m1"}},
		{iv(2, 4), "s1", []Value{"m1", "m2"}},
		{iv(4, 5), "s1", []Value{"m2", "m5"}},
		{iv(5, 7), "s2", []Value{"m2", "m5"}},
		{iv(7, 9), "s2", []Value{"m3", "m5"}},
		{iv(9, 10), "s3", []Value{"m3", "m4"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warp =\n%v\nwant\n%v", got, want)
	}
}

func TestWarpMergesAcrossMessageBoundaries(t *testing.T) {
	// A message duplicated over two adjacent intervals with the same value:
	// maximality must fuse the output (Mj = Mk as value groups).
	outer := []IntervalValue{{iv(0, 10), "s"}}
	inner := []IntervalValue{
		{iv(0, 5), int64(7)},
		{iv(5, 10), int64(7)},
	}
	got := anyWarp(outer, inner)
	want := []anyTuple{{iv(0, 10), "s", []Value{int64(7)}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warp = %v, want fused %v", got, want)
	}
}

func TestWarpMergesAcrossStatePartitions(t *testing.T) {
	// Adjacent state partitions with equal values and the same message
	// group must merge (the formal Maximal property ranges over values).
	outer := []IntervalValue{
		{iv(0, 5), int64(1)},
		{iv(5, 10), int64(1)},
	}
	inner := []IntervalValue{{iv(0, 10), "m"}}
	got := anyWarp(outer, inner)
	want := []anyTuple{{iv(0, 10), int64(1), []Value{"m"}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warp = %v, want %v", got, want)
	}
}

func TestWarpSSSPExample(t *testing.T) {
	// Superstep 3 of the paper's SSSP walkthrough: vertex E with prior
	// state 〈[0,∞), ∞〉 and messages 〈[9,∞), 5〉 from B, 〈[6,∞), 7〉 from C
	// warps to 〈[6,9), ∞, {7}〉 and 〈[9,∞), ∞, {5,7}〉.
	inf := int64(1 << 40)
	outer := []IntervalValue{{ival.Universe, inf}}
	inner := []IntervalValue{
		{ival.From(9), int64(5)},
		{ival.From(6), int64(7)},
	}
	got := anyWarp(outer, inner)
	want := []anyTuple{
		{iv(6, 9), inf, []Value{int64(7)}},
		{ival.From(9), inf, []Value{int64(5), int64(7)}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warp = %v, want %v", got, want)
	}
}

func TestWarpEmptyInputs(t *testing.T) {
	if got := anyWarp(nil, []IntervalValue{{iv(0, 5), 1}}); got != nil {
		t.Errorf("empty outer should give nil, got %v", got)
	}
	if got := anyWarp([]IntervalValue{{iv(0, 5), 1}}, nil); got != nil {
		t.Errorf("empty inner should give nil, got %v", got)
	}
	if got := anyWarp([]IntervalValue{{iv(0, 5), 1}}, []IntervalValue{{ival.Empty, 2}}); got != nil {
		t.Errorf("all-empty inner intervals should give nil, got %v", got)
	}
	// Disjoint in time: nothing to group.
	if got := anyWarp([]IntervalValue{{iv(0, 5), 1}}, []IntervalValue{{iv(7, 9), 2}}); got != nil {
		t.Errorf("disjoint sets should give nil, got %v", got)
	}
}

func TestWarpCombined(t *testing.T) {
	outer, inner := fig3()
	// Replace message values with ints to fold.
	for i := range inner {
		inner[i].Value = int64(i + 1)
	}
	sum := func(a, b Value) Value { return a.(int64) + b.(int64) }
	got := anyWarpCombined(outer, inner, sum)
	plain := anyWarp(outer, inner)
	if len(got) != len(plain) {
		t.Fatalf("combined output length %d != plain %d", len(got), len(plain))
	}
	for i, tu := range got {
		var want int64
		for _, m := range plain[i].Msgs {
			want += m.(int64)
		}
		if len(tu.Msgs) != 1 || tu.Msgs[0].(int64) != want {
			t.Errorf("tuple %d: combined = %v, want [%d]", i, tu.Msgs, want)
		}
		if tu.Interval != plain[i].Interval {
			t.Errorf("tuple %d: interval mismatch %v vs %v", i, tu.Interval, plain[i].Interval)
		}
	}
}

func TestTimeJoin(t *testing.T) {
	outer := []IntervalValue{{iv(0, 5), "a"}, {iv(5, 10), "b"}}
	inner := []IntervalValue{{iv(3, 7), "x"}, {iv(8, 9), "y"}, {iv(20, 30), "z"}}
	got := TimeJoin(outer, inner)
	want := []JoinTriple{
		{iv(3, 5), "a", "x"},
		{iv(5, 7), "b", "x"},
		{iv(8, 9), "b", "y"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timejoin = %v, want %v", got, want)
	}
}

func TestUnitFraction(t *testing.T) {
	inner := []IntervalValue{
		{ival.Point(3), 1},
		{ival.Point(9), 1},
		{iv(0, 5), 1},
		{ival.From(2), 1},
	}
	if got := UnitFraction(inner); got != 0.5 {
		t.Errorf("unit fraction = %v, want 0.5", got)
	}
	if UnitFraction(nil) != 0 {
		t.Errorf("empty fraction should be 0")
	}
}

// --- Property-based validation against a per-time-point oracle ---

// samplePoints are the time-points at which the oracle checks agreement;
// the generator keeps all finite boundaries below 48, and the large points
// probe unbounded tails.
var samplePoints = func() []ival.Time {
	var ps []ival.Time
	for t := ival.Time(0); t < 48; t++ {
		ps = append(ps, t)
	}
	return append(ps, 1000, 1_000_000, ival.Infinity-1)
}()

// randInstance generates a random temporally partitioned outer set and a
// random inner set. State values are unique ints; message values are small
// ints (so duplicate values occur and exercise maximal merging).
func randInstance(r *rand.Rand) (outer, inner []IntervalValue) {
	// Partitioned states covering [start, end-or-∞).
	cur := ival.Time(r.Intn(6))
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		next := cur + ival.Time(1+r.Intn(10))
		intv := ival.New(cur, next)
		if i == n-1 && r.Intn(2) == 0 {
			intv = ival.From(cur)
		}
		outer = append(outer, IntervalValue{intv, 100 + i})
		cur = next
	}
	m := r.Intn(7)
	for i := 0; i < m; i++ {
		s := ival.Time(r.Intn(40))
		var intv ival.Interval
		switch r.Intn(4) {
		case 0:
			intv = ival.From(s)
		case 1:
			intv = ival.Point(s)
		default:
			intv = ival.New(s, s+ival.Time(1+r.Intn(12)))
		}
		inner = append(inner, IntervalValue{intv, r.Intn(3)})
	}
	return
}

func checkWarpProperties(t *testing.T, outer, inner []IntervalValue, out []anyTuple) {
	t.Helper()
	// Output must be temporally partitioned (sorted, pairwise disjoint).
	for i := 1; i < len(out); i++ {
		if out[i-1].Interval.End > out[i].Interval.Start {
			t.Fatalf("output not temporally partitioned: %v then %v", out[i-1], out[i])
		}
	}
	for _, tu := range out {
		if tu.Interval.IsEmpty() {
			t.Fatalf("empty output interval: %v", tu)
		}
		if len(tu.Msgs) == 0 {
			t.Fatalf("empty message group: %v", tu)
		}
	}
	for _, tp := range samplePoints {
		// Oracle state and message multiset at tp.
		var stVal Value
		stFound := false
		for _, o := range outer {
			if o.Interval.Contains(tp) {
				stVal, stFound = o.Value, true
			}
		}
		var oracleMsgs []Value
		for _, m := range inner {
			if m.Interval.Contains(tp) {
				oracleMsgs = append(oracleMsgs, m.Value)
			}
		}
		// Warp tuples containing tp.
		var hits []anyTuple
		for _, tu := range out {
			if tu.Interval.Contains(tp) {
				hits = append(hits, tu)
			}
		}
		if !stFound || len(oracleMsgs) == 0 {
			// Properties 2: nothing may be emitted here.
			if len(hits) != 0 {
				t.Fatalf("t=%d: invalid inclusion: %v (state found=%v, msgs=%v)", tp, hits, stFound, oracleMsgs)
			}
			continue
		}
		// Property 3: exactly one tuple covers tp.
		if len(hits) != 1 {
			t.Fatalf("t=%d: %d tuples cover the point, want 1", tp, len(hits))
		}
		h := hits[0]
		if !reflect.DeepEqual(h.State, stVal) {
			t.Fatalf("t=%d: state %v, oracle %v", tp, h.State, stVal)
		}
		// Property 1 + 2 on the group: multiset equality with the oracle.
		if !multisetEqual(h.Msgs, oracleMsgs) {
			t.Fatalf("t=%d: msgs %v, oracle %v", tp, h.Msgs, oracleMsgs)
		}
	}
	// Property 4: no adjacent/overlapping tuples with equal state and group.
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		if a.Interval.Meets(b.Interval) && reflect.DeepEqual(a.State, b.State) &&
			multisetEqual(a.Msgs, b.Msgs) {
			t.Fatalf("maximality violated: %v and %v", a, b)
		}
	}
}

func multisetEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	counts := map[Value]int{}
	for _, v := range a {
		counts[v]++
	}
	for _, v := range b {
		counts[v]--
		if counts[v] < 0 {
			return false
		}
	}
	return true
}

func TestWarpPropertiesRandomized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		outer, inner := randInstance(r)
		out := anyWarp(outer, inner)
		checkWarpProperties(t, outer, inner, out)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPointGroupsMatchesWarp validates the suppression path: flattening the
// warp output to time-points must equal the point-group output, including
// the unbounded tail.
func TestPointGroupsMatchesWarp(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		outer, inner := randInstance(r)
		w := anyWarp(outer, inner)
		p := anyPointGroups(outer, inner)
		for _, tp := range samplePoints {
			var wg, pg []Value
			for _, tu := range w {
				if tu.Interval.Contains(tp) {
					wg = tu.Msgs
				}
			}
			for _, tu := range p {
				if tu.Interval.Contains(tp) {
					pg = tu.Msgs
				}
			}
			if !multisetEqual(wg, pg) {
				t.Logf("t=%d: warp %v point %v", tp, wg, pg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWarpCombinedMatchesFold(t *testing.T) {
	min := func(a, b Value) Value {
		if a.(int) < b.(int) {
			return a
		}
		return b
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		outer, inner := randInstance(r)
		plain := anyWarp(outer, inner)
		comb := anyWarpCombined(outer, inner, min)
		// Every plain tuple interval must be covered by combined tuples
		// with the folded value; combined may be coarser (folding can make
		// adjacent groups equal), so compare point-wise.
		for _, tp := range samplePoints {
			var want Value
			for _, tu := range plain {
				if tu.Interval.Contains(tp) {
					w := tu.Msgs[0]
					for _, m := range tu.Msgs[1:] {
						w = min(w, m)
					}
					want = w
				}
			}
			var got Value
			for _, tu := range comb {
				if tu.Interval.Contains(tp) {
					got = tu.Msgs[0]
				}
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
