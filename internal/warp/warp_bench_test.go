package warp

import (
	"math/rand"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// benchInstance builds a realistic per-vertex warp workload: nParts state
// partitions over [0, span) and nMsgs overlapping messages.
func benchInstance(nParts, nMsgs int, span ival.Time) (outer, inner []IntervalValue) {
	r := rand.New(rand.NewSource(1))
	step := span / ival.Time(nParts)
	for i := 0; i < nParts; i++ {
		end := ival.Time(i+1) * step
		if i == nParts-1 {
			end = span
		}
		outer = append(outer, IntervalValue{ival.New(ival.Time(i)*step, end), int64(i)})
	}
	for i := 0; i < nMsgs; i++ {
		s := ival.Time(r.Intn(int(span)))
		e := s + ival.Time(r.Intn(int(span-s))) + 1
		inner = append(inner, IntervalValue{ival.New(s, e), int64(r.Intn(8))})
	}
	return
}

func BenchmarkWarpSmall(b *testing.B) {
	outer, inner := benchInstance(2, 8, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Warp(outer, inner)
	}
}

func BenchmarkWarpLarge(b *testing.B) {
	outer, inner := benchInstance(8, 64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Warp(outer, inner)
	}
}

func BenchmarkWarpCombinedLarge(b *testing.B) {
	outer, inner := benchInstance(8, 64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WarpCombined(outer, inner, minInt64)
	}
}

func BenchmarkPointGroupsUnit(b *testing.B) {
	// The suppression path: unit messages over a short lifespan.
	outer := []IntervalValue{{ival.New(0, 8), int64(0)}}
	var inner []IntervalValue
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 24; i++ {
		inner = append(inner, IntervalValue{ival.Point(ival.Time(r.Intn(8))), int64(i)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PointGroups(outer, inner)
	}
}

func BenchmarkTimeJoin(b *testing.B) {
	outer, inner := benchInstance(8, 64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TimeJoin(outer, inner)
	}
}

// The three benchmarks below are shaped like the traffic the acceptance
// benchmark measured, each on a warmed Scratch, where a steady-state
// superstep must not allocate.

func minInt64(a, b codec.Word) codec.Word {
	if b.Int() < a.Int() {
		return b
	}
	return a
}

// inboxOuter cuts [0, ∞) into n state partitions of the given width.
func inboxOuter(n int, width ival.Time) []IntervalValue {
	var outer []IntervalValue
	for p := 0; p < n; p++ {
		outer = append(outer, IntervalValue{ival.New(ival.Time(p)*width, ival.Time(p+1)*width), int64(p)})
	}
	outer[n-1].Interval.End = ival.Infinity
	return outer
}

// tillInfInbox is a path algorithm's inbox: m messages 〈[t, ∞), cost〉 with
// scattered starts, a few of them equal.
func tillInfInbox(m int) []IntervalValue {
	r := rand.New(rand.NewSource(3))
	var inner []IntervalValue
	for i := 0; i < m; i++ {
		inner = append(inner, IntervalValue{ival.From(ival.Time(r.Intn(24))), int64(r.Intn(100))})
	}
	return inner
}

func benchInbox(b *testing.B, align func(s *Scratch, dst []Tuple) []Tuple) {
	var s Scratch
	dst := align(&s, nil) // warm the scratch and the tuple buffer
	if len(dst) == 0 {
		b.Fatal("fixture aligned to nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = align(&s, dst[:0])
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(10, func() { dst = align(&s, dst[:0]) }); allocs != 0 {
		b.Fatalf("%v allocs/op on a warmed Scratch, want 0", allocs)
	}
}

// BenchmarkPathInbox is serve_cold's mean warp call: 8 till-∞ messages over
// 3 state partitions under a min combiner.
func BenchmarkPathInbox(b *testing.B) {
	outer, inner := inboxOuter(3, 8), tillInfInbox(8)
	benchInbox(b, func(s *Scratch, dst []Tuple) []Tuple { return s.WarpCombined(dst, outer, inner, minInt64) })
}

// BenchmarkHubInbox is serve_cold's largest: 59 messages.
func BenchmarkHubInbox(b *testing.B) {
	outer, inner := inboxOuter(3, 8), tillInfInbox(59)
	benchInbox(b, func(s *Scratch, dst []Tuple) []Tuple { return s.WarpCombined(dst, outer, inner, minInt64) })
}

// BenchmarkRankInbox is cluster_pr's shape: unit messages, four to a
// time-point, through the suppressed path over 16 state partitions.
func BenchmarkRankInbox(b *testing.B) {
	outer := inboxOuter(16, 1)
	var inner []IntervalValue
	for i := 0; i < 64; i++ {
		inner = append(inner, IntervalValue{ival.Point(ival.Time(i * 5 % 16)), float64(i)})
	}
	sum := func(a, c codec.Word) codec.Word { return codec.FloatWord(a.Float() + c.Float()) }
	benchInbox(b, func(s *Scratch, dst []Tuple) []Tuple { return s.PointGroupsCombined(dst, outer, inner, sum) })
}
