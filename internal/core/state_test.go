package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	ival "graphite/internal/interval"
	"graphite/internal/warp"
)

func TestPartitionedStateBasics(t *testing.T) {
	s := NewPartitionedState(ival.New(0, 10), int64(0))
	if s.NumParts() != 1 || s.Lifespan() != ival.New(0, 10) {
		t.Fatalf("initial state wrong: %+v", s.Parts())
	}
	if v, ok := s.Get(5); !ok || v.(int64) != 0 {
		t.Fatalf("Get(5) = %v,%v", v, ok)
	}
	if _, ok := s.Get(10); ok {
		t.Fatalf("Get outside lifespan must fail")
	}
	if err := s.Set(ival.New(3, 6), int64(7)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if s.NumParts() != 3 {
		t.Fatalf("want 3 partitions after split, got %v", s.Parts())
	}
	if err := s.Invariant(); err != nil {
		t.Fatalf("invariant: %v", err)
	}
	// Re-setting the same value everywhere must fuse back to one partition.
	if err := s.Set(ival.New(0, 10), int64(7)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if s.NumParts() != 1 {
		t.Fatalf("fuse failed: %v", s.Parts())
	}
}

func TestPartitionedStateFusesEqualNeighbors(t *testing.T) {
	s := NewPartitionedState(ival.New(0, 10), int64(1))
	s.Set(ival.New(0, 5), int64(2))
	s.Set(ival.New(5, 10), int64(2))
	if s.NumParts() != 1 {
		t.Fatalf("adjacent equal values must fuse: %v", s.Parts())
	}
}

func TestPartitionedStateRejectsOutOfRange(t *testing.T) {
	s := NewPartitionedState(ival.New(2, 8), int64(0))
	for _, iv := range []ival.Interval{ival.New(0, 3), ival.New(7, 9), ival.Empty, ival.From(2)} {
		if err := s.Set(iv, int64(1)); !errors.Is(err, ErrStateOutOfRange) {
			t.Errorf("Set(%v) should fail with ErrStateOutOfRange, got %v", iv, err)
		}
	}
	if err := s.Invariant(); err != nil {
		t.Fatalf("failed sets must not corrupt the state: %v", err)
	}
}

// TestPartitionedStateOracle fuzzes Set/Get against a per-point array.
func TestPartitionedStateOracle(t *testing.T) {
	const span = 32
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewPartitionedState(ival.New(0, span), int64(-1))
		oracle := make([]int64, span)
		for i := range oracle {
			oracle[i] = -1
		}
		for op := 0; op < 25; op++ {
			a := ival.Time(r.Intn(span))
			b := a + ival.Time(r.Intn(span-int(a))) + 1
			v := int64(r.Intn(4))
			if err := s.Set(ival.New(a, b), v); err != nil {
				return false
			}
			for i := a; i < b; i++ {
				oracle[i] = v
			}
			if err := s.Invariant(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		for i := ival.Time(0); i < span; i++ {
			got, ok := s.Get(i)
			if !ok || got.(int64) != oracle[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPartitionedStateUnbounded exercises ∞-ended lifespans.
func TestPartitionedStateUnbounded(t *testing.T) {
	s := NewPartitionedState(ival.Universe, int64(0))
	if err := s.Set(ival.From(100), int64(9)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, _ := s.Get(ival.Infinity - 1); v.(int64) != 9 {
		t.Fatalf("tail value wrong: %v", v)
	}
	if v, _ := s.Get(99); v.(int64) != 0 {
		t.Fatalf("head value wrong: %v", v)
	}
	if err := s.Invariant(); err != nil {
		t.Fatalf("invariant: %v", err)
	}
}

// ---- reference oracle ----
//
// The Set the in-place splice replaced, kept as the test reference: rebuild
// the whole partition list around the update, then fuse equal neighbours in
// one left-to-right pass over all of it.

func oracleSet(parts []warp.IntervalValue, life, iv ival.Interval, value any) ([]warp.IntervalValue, error) {
	if iv.IsEmpty() || !life.ContainsInterval(iv) {
		return parts, ErrStateOutOfRange
	}
	var out []warp.IntervalValue
	inserted := false
	for _, p := range parts {
		x := p.Interval.Intersect(iv)
		if x.IsEmpty() {
			out = append(out, p)
			continue
		}
		if p.Interval.Start < x.Start {
			out = append(out, warp.IntervalValue{Interval: ival.New(p.Interval.Start, x.Start), Value: p.Value})
		}
		if !inserted {
			out = append(out, warp.IntervalValue{Interval: iv, Value: value})
			inserted = true
		}
		if x.End < p.Interval.End {
			out = append(out, warp.IntervalValue{Interval: ival.New(x.End, p.Interval.End), Value: p.Value})
		}
	}
	return oracleFuse(out), nil
}

func oracleFuse(parts []warp.IntervalValue) []warp.IntervalValue {
	out := parts[:0]
	for _, p := range parts {
		if n := len(out); n > 0 && out[n-1].Interval.Meets(p.Interval) &&
			warp.ValueEqual(out[n-1].Value, p.Value) {
			out[n-1].Interval.End = p.Interval.End
			continue
		}
		out = append(out, p)
	}
	return out
}

// sameValue is identity as a checkpoint would see it: floats by bit pattern
// (NaN equals itself, 0 differs from −0), everything else structurally.
func sameValue(a, b any) bool {
	fa, oka := a.(float64)
	fb, okb := b.(float64)
	if oka || okb {
		return oka && okb && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return reflect.DeepEqual(a, b)
}

func sameParts(a, b []warp.IntervalValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Interval != b[i].Interval || !sameValue(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// stateSetPalette mixes the value kinds ValueEqual treats differently: two
// scalar types, floats that are equal but not identical (0, −0) or identical
// but not equal (NaN), nil, and composites that go through reflection —
// including two distinct slices with equal contents.
func stateSetPalette() []any {
	type composite struct {
		Pending []int64
		Count   int64
	}
	return []any{
		int64(0), int64(1), int64(2),
		0.0, math.Copysign(0, -1), 1.5, math.NaN(),
		nil,
		composite{Pending: []int64{1, 2}}, composite{Pending: []int64{1, 2}}, composite{Count: 3},
	}
}

// checkSetAgainstOracle applies one Set to both sides and compares them
// partition for partition; a failed Set must fail on both and change nothing.
func checkSetAgainstOracle(t *testing.T, s *PartitionedState, oracle []warp.IntervalValue, iv ival.Interval, value any) []warp.IntervalValue {
	t.Helper()
	before := slices.Clone(s.Parts())
	want, wantErr := oracleSet(slices.Clone(oracle), s.Lifespan(), iv, value)
	err := s.Set(iv, value)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Set(%v, %v) on %v: err = %v, oracle err = %v", iv, value, before, err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrStateOutOfRange) {
			t.Fatalf("Set(%v): error %v is not ErrStateOutOfRange", iv, err)
		}
		if !sameParts(before, s.Parts()) {
			t.Fatalf("failed Set(%v) mutated the state: %v -> %v", iv, before, s.Parts())
		}
		return oracle
	}
	if !sameParts(s.Parts(), want) {
		t.Fatalf("Set(%v, %v) on %v:\n  got    %v\n  oracle %v", iv, value, before, s.Parts(), want)
	}
	if err := s.Invariant(); err != nil {
		t.Fatalf("Set(%v, %v) on %v: %v", iv, value, before, err)
	}
	return want
}

// TestSetMatchesOracle drives seeded op sequences of every shape Set has a
// case for — overwrite exactly one partition, straddle many, extend a
// partition to the left or right with its own value, re-set what is already
// there, write the same value across a seam, and the two ways to fail — over
// bounded and unbounded lifespans, and holds each step to the oracle.
func TestSetMatchesOracle(t *testing.T) {
	palette := stateSetPalette()
	for _, life := range []ival.Interval{ival.New(3, 67), ival.From(5), ival.Universe} {
		for seed := int64(1); seed <= 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			pick := func() any { return palette[r.Intn(len(palette))] }
			s := NewPartitionedState(life, pick())
			oracle := slices.Clone(s.Parts())
			span := ival.Time(64)
			point := func() ival.Time { return life.Start + ival.Time(r.Int63n(int64(span))) }
			for op := 0; op < 60; op++ {
				parts := s.Parts()
				k := r.Intn(len(parts))
				p := parts[k]
				iv, value := p.Interval, pick()
				switch r.Intn(9) {
				case 0: // overwrite one partition with a fresh value
				case 1: // re-set it to what it holds
					value = p.Value
				case 2: // straddle from inside this partition into a later one
					q := parts[k+r.Intn(len(parts)-k)]
					iv = ival.New(p.Interval.Start+ival.Time(r.Int63n(2)), q.Interval.End)
					if q.Interval.End == ival.Infinity && r.Intn(2) == 0 {
						iv.End = q.Interval.Start + 1
					}
				case 3: // extend the partition to the left with its own value
					if k > 0 {
						iv, value = ival.New(parts[k-1].Interval.End-1, p.Interval.Start), p.Value
					}
				case 4: // ... and to the right
					if k+1 < len(parts) {
						iv, value = ival.New(p.Interval.End, p.Interval.End+1), p.Value
					}
				case 5: // strictly inside one partition
					a := point()
					iv = ival.New(a, a+1+ival.Time(r.Intn(3)))
				case 6: // anywhere, any width, possibly unbounded
					a := point()
					iv = ival.New(a, a+1+ival.Time(r.Int63n(int64(span))))
					if life.End == ival.Infinity && r.Intn(3) == 0 {
						iv.End = ival.Infinity
					}
				case 7: // empty
					iv = ival.New(p.Interval.Start, p.Interval.Start)
				case 8: // sticking out of the lifespan
					if life.Start > 0 {
						iv = ival.New(life.Start-1, p.Interval.End)
					} else if life.End != ival.Infinity {
						iv = ival.New(p.Interval.Start, life.End+1)
					}
				}
				oracle = checkSetAgainstOracle(t, s, oracle, iv, value)
			}
		}
	}
}

// TestSetSteadyStateNoAllocs pins the splice's memory behaviour: once the
// partition array has reached its working size, overwriting, splitting and
// re-fusing partitions allocates nothing — there is one array, rewritten in
// place.
func TestSetSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	const n = 32
	s := NewPartitionedState(ival.New(0, n), int64(-1))
	vals := make([]any, n+2) // boxed once; Set takes any
	for i := range vals {
		vals[i] = int64(i)
	}
	cycle := func() {
		for i := 0; i < n; i++ { // one partition per point
			s.Set(ival.Point(ival.Time(i)), vals[i])
		}
		s.Set(ival.New(4, 20), vals[n])   // straddle many
		s.Set(ival.New(8, 12), vals[n+1]) // split one in three
		s.Set(ival.New(8, 12), vals[n])   // fuse it back
		s.Set(ival.New(0, n), vals[0])    // collapse to one
	}
	cycle() // grow the array to its working size
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("steady-state Set cycle allocates %.1f, want 0", allocs)
	}
	if s.NumParts() != 1 {
		t.Fatalf("cycle must end fused to one partition: %v", s.Parts())
	}
}
