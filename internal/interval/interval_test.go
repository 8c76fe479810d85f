package interval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSatAdd(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 0, 0},
		{5, 3, 8},
		{Infinity, 1, Infinity},
		{1, Infinity, Infinity},
		{Infinity, Infinity, Infinity},
		{Infinity - 1, 1, Infinity},
		{Infinity - 1, 5, Infinity},
		{10, -3, 7},
	}
	for _, c := range cases {
		if got := SatAdd(c.a, c.b); got != c.want {
			t.Errorf("SatAdd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSatSub(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{5, 3, 2},
		{3, 5, 0},
		{3, 3, 0},
		{Infinity, 100, Infinity},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := SatSub(c.a, c.b); got != c.want {
			t.Errorf("SatSub(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := New(2, 7)
	if iv.IsEmpty() || iv.IsUnit() || iv.IsUnbounded() {
		t.Fatalf("classification of %v wrong", iv)
	}
	if iv.Length() != 5 {
		t.Errorf("Length = %d, want 5", iv.Length())
	}
	if !iv.Contains(2) || !iv.Contains(6) || iv.Contains(7) || iv.Contains(1) {
		t.Errorf("Contains half-open semantics broken for %v", iv)
	}
	if !Point(4).IsUnit() {
		t.Errorf("Point(4) should be unit")
	}
	if !From(3).IsUnbounded() {
		t.Errorf("From(3) should be unbounded")
	}
	if From(3).Length() != Infinity {
		t.Errorf("unbounded length should be Infinity")
	}
	if New(5, 5).IsEmpty() != true || New(6, 5).IsEmpty() != true {
		t.Errorf("degenerate intervals should be empty")
	}
	if Empty.Valid() || !iv.Valid() || New(-1, 4).Valid() {
		t.Errorf("Valid misclassifies")
	}
}

func TestIntervalRelations(t *testing.T) {
	a := New(0, 5)
	b := New(5, 9)
	c := New(3, 7)
	if a.Intersects(b) {
		t.Errorf("half-open [0,5) and [5,9) must not intersect")
	}
	if !a.Meets(b) {
		t.Errorf("[0,5) meets [5,9)")
	}
	if !a.Intersects(c) || !c.Intersects(b) {
		t.Errorf("overlapping intervals must intersect")
	}
	// Containment intersects both ways, bounded or not: an overlap test that
	// only asks whether an endpoint of one lies in the other misses the
	// outer interval.
	outer, inner := New(0, 10), New(3, 5)
	if !outer.Intersects(inner) || !inner.Intersects(outer) {
		t.Errorf("[0,10) and [3,5) must intersect both ways")
	}
	if !From(0).Intersects(inner) || !inner.Intersects(From(0)) {
		t.Errorf("[0,∞) and [3,5) must intersect both ways")
	}
	if s := NewSet(outer, New(20, 30)); !s.Intersects(inner) {
		t.Errorf("%v must intersect [3,5), which its [0,10) contains", s)
	}
	if got := a.Intersect(c); got != New(3, 5) {
		t.Errorf("intersect = %v, want [3,5)", got)
	}
	if got := a.Union(b); got != New(0, 9) {
		t.Errorf("union = %v, want [0,9)", got)
	}
	if !New(1, 3).During(a) {
		t.Errorf("[1,3) during [0,5)")
	}
	if a.During(a) {
		t.Errorf("during is strict")
	}
	if !a.ContainsInterval(a) {
		t.Errorf("ContainsInterval reflexive")
	}
	if !a.Precedes(b) || b.Precedes(a) {
		t.Errorf("precedes wrong")
	}
}

func TestTranslateSaturates(t *testing.T) {
	iv := From(5)
	got := iv.Translate(10)
	if got != From(15) {
		t.Errorf("Translate unbounded = %v, want [15,∞)", got)
	}
	if New(1, Infinity-1).Translate(100) != From(101) {
		t.Errorf("Translate should saturate end at Infinity")
	}
}

// TestString pins String byte for byte against the fmt forms it replaced —
// served and CLI results are compared as strings — and, through fmt itself,
// that %v still reaches it.
func TestString(t *testing.T) {
	sprintf := func(iv Interval) string {
		if iv.IsEmpty() {
			return "[)"
		}
		if iv.End == Infinity {
			return fmt.Sprintf("[%d, ∞)", iv.Start)
		}
		return fmt.Sprintf("[%d, %d)", iv.Start, iv.End)
	}
	cases := []struct {
		iv   Interval
		want string
	}{
		{Empty, "[)"},
		{New(5, 5), "[)"},
		{New(9, 2), "[)"},
		{New(2, 7), "[2, 7)"},
		{From(3), "[3, ∞)"},
		{New(-2, 7), "[-2, 7)"},
		{Universe, "[0, ∞)"},
		{Point(41), "[41, 42)"},
		{New(math.MinInt64, -1), "[-9223372036854775808, -1)"},
		{New(math.MinInt64, Infinity-1), "[-9223372036854775808, 9223372036854775806)"},
		{New(math.MinInt64, Infinity), "[-9223372036854775808, ∞)"},
	}
	for _, c := range cases {
		if got := c.iv.String(); got != c.want || got != sprintf(c.iv) {
			t.Errorf("String(%d, %d) = %q, want %q (fmt form %q)", c.iv.Start, c.iv.End, got, c.want, sprintf(c.iv))
		}
		if got := fmt.Sprintf("%v", c.iv); got != c.want {
			t.Errorf("%%v of (%d, %d) = %q, want %q", c.iv.Start, c.iv.End, got, c.want)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		iv := randomInterval(r)
		if got, want := iv.String(), sprintf(iv); got != want {
			t.Fatalf("String(%d, %d) = %q, fmt form %q", iv.Start, iv.End, got, want)
		}
	}
}

// randomInterval generates a small random interval (possibly unbounded).
func randomInterval(r *rand.Rand) Interval {
	s := Time(r.Intn(20))
	if r.Intn(8) == 0 {
		return From(s)
	}
	return New(s, s+Time(r.Intn(10))+1)
}

func TestIntersectionCommutesAndContains(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomInterval(r), randomInterval(r)
		x, y := a.Intersect(b), b.Intersect(a)
		if x != y && !(x.IsEmpty() && y.IsEmpty()) {
			return false
		}
		// Pointwise agreement over a sample of time-points.
		for tp := Time(0); tp < 40; tp++ {
			if x.Contains(tp) != (a.Contains(tp) && b.Contains(tp)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAddCoalesces(t *testing.T) {
	s := NewSet(New(0, 3), New(5, 8))
	if s.Len() != 2 {
		t.Fatalf("want 2 intervals, got %v", s)
	}
	s.Add(New(3, 5)) // adjacent to both: should fuse everything
	if s.Len() != 1 || s.Intervals()[0] != New(0, 8) {
		t.Fatalf("coalesce failed: %v", s)
	}
	s.Add(New(20, 25))
	s.Add(New(10, 12))
	if s.Len() != 3 {
		t.Fatalf("disjoint add failed: %v", s)
	}
	if !s.Contains(11) || s.Contains(12) || !s.Contains(24) {
		t.Errorf("membership wrong: %v", s)
	}
}

func TestSetSubtract(t *testing.T) {
	s := NewSet(New(0, 10))
	s = s.Subtract(New(3, 6))
	want := NewSet(New(0, 3), New(6, 10))
	if !s.Equal(want) {
		t.Fatalf("subtract = %v, want %v", s, want)
	}
	s = s.Subtract(New(0, 100))
	if !s.IsEmpty() {
		t.Fatalf("full subtract should empty the set: %v", s)
	}
}

func TestSetIntersect(t *testing.T) {
	s := NewSet(New(0, 4), New(6, 10), From(20))
	got := s.Intersect(New(2, 22))
	want := NewSet(New(2, 4), New(6, 10), New(20, 22))
	if !got.Equal(want) {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if s.Duration() != Infinity {
		t.Errorf("unbounded set duration should be Infinity")
	}
	if NewSet(New(0, 4), New(6, 10)).Duration() != 8 {
		t.Errorf("duration wrong")
	}
}

// TestSetPointwiseOracle validates Set operations against a bitmap oracle
// over a bounded time domain, with randomized operations.
func TestSetPointwiseOracle(t *testing.T) {
	const horizon = 64
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Set
		oracle := make([]bool, horizon)
		for op := 0; op < 30; op++ {
			st := Time(r.Intn(horizon - 1))
			en := st + Time(r.Intn(horizon-int(st))) + 1
			iv := New(st, en)
			if r.Intn(3) == 0 {
				s = s.Subtract(iv)
				for tp := st; tp < en; tp++ {
					oracle[tp] = false
				}
			} else {
				s.Add(iv)
				for tp := st; tp < en; tp++ {
					oracle[tp] = true
				}
			}
		}
		// Canonical form: sorted, disjoint, non-adjacent.
		ivs := s.Intervals()
		for i := 0; i < len(ivs); i++ {
			if ivs[i].IsEmpty() {
				return false
			}
			if i > 0 && ivs[i-1].End >= ivs[i].Start {
				return false
			}
		}
		for tp := Time(0); tp < horizon; tp++ {
			if s.Contains(tp) != oracle[tp] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetContainsInterval(t *testing.T) {
	s := NewSet(New(0, 5), New(7, 12))
	if !s.ContainsInterval(New(1, 4)) {
		t.Errorf("should contain [1,4)")
	}
	if s.ContainsInterval(New(4, 8)) {
		t.Errorf("should not contain [4,8): hole at [5,7)")
	}
	if !s.ContainsInterval(Empty) {
		t.Errorf("every set contains the empty interval")
	}
	if !s.Intersects(New(4, 8)) {
		t.Errorf("should intersect [4,8)")
	}
	if s.Intersects(New(5, 7)) {
		t.Errorf("must not intersect the hole")
	}
}

// TestAllenRelationsExhaustive checks that, for non-equal intervals, exactly
// one of Allen's basic relations (or its inverse) holds — the relations
// partition the configuration space.
func TestAllenRelationsExhaustive(t *testing.T) {
	rel := func(a, b Interval) []string {
		var rs []string
		if a.Precedes(b) && !a.Meets(b) {
			rs = append(rs, "before")
		}
		if a.Meets(b) {
			rs = append(rs, "meets")
		}
		if a.Overlaps(b) {
			rs = append(rs, "overlaps")
		}
		if a.Starts(b) {
			rs = append(rs, "starts")
		}
		if a.During(b) && a.Start > b.Start && a.End < b.End {
			rs = append(rs, "during")
		}
		if a.Finishes(b) {
			rs = append(rs, "finishes")
		}
		return rs
	}
	for as := Time(0); as < 6; as++ {
		for ae := as + 1; ae <= 6; ae++ {
			for bs := Time(0); bs < 6; bs++ {
				for be := bs + 1; be <= 6; be++ {
					a, b := New(as, ae), New(bs, be)
					if a == b {
						continue
					}
					n := len(rel(a, b)) + len(rel(b, a))
					if n != 1 {
						t.Fatalf("%v vs %v: %d relations (%v / %v)", a, b, n, rel(a, b), rel(b, a))
					}
				}
			}
		}
	}
}

func TestAllenRelationExamples(t *testing.T) {
	if !New(0, 3).Overlaps(New(2, 6)) || New(2, 6).Overlaps(New(0, 3)) {
		t.Errorf("overlaps wrong")
	}
	if !New(0, 3).Starts(New(0, 6)) || New(0, 6).Starts(New(0, 3)) {
		t.Errorf("starts wrong")
	}
	if !New(4, 6).Finishes(New(0, 6)) || New(0, 6).Finishes(New(4, 6)) {
		t.Errorf("finishes wrong")
	}
}
