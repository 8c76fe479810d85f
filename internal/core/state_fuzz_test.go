package core

import (
	"testing"

	ival "graphite/internal/interval"
	"graphite/internal/warp"
)

// FuzzStateSet drives PartitionedState.Set with a fuzzer-chosen lifespan and
// op sequence against two references: the rebuild-and-fuse Set the in-place
// splice replaced (oracleSet), which it must match partition for partition,
// and a point-wise model. After every op the partition invariant holds
// (fusion is maximal), and out-of-range updates fail without mutating the
// state. Values come from stateSetPalette, so equal-but-not-identical and
// identical-but-not-equal neighbours meet at the seams.
func FuzzStateSet(f *testing.F) {
	f.Add([]byte{4, 10, 0, 0, 2, 1, 3, 4, 2, 1, 15, 3})
	f.Add([]byte{0, 200, 2, 3, 1, 9, 15, 4})
	f.Add([]byte{7, 1, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}

		base := ival.Time(next() % 8)
		span := ival.Time(1 + next()%24)
		life := ival.New(base, base+span)
		if next()%8 == 0 {
			life = ival.From(base)
		}
		palette := stateSetPalette()
		init := palette[int(next())%len(palette)]
		s := NewPartitionedState(life, init)
		oracle := append([]warp.IntervalValue(nil), s.Parts()...)

		// The point-wise model: sample points cover every finite boundary the
		// ops can produce, plus a far point for unbounded lifespans.
		var samples []ival.Time
		for p := ival.Time(0); p < base+span+8; p++ {
			samples = append(samples, p)
		}
		samples = append(samples, ival.Infinity-1)
		model := map[ival.Time]any{}
		for _, p := range samples {
			if life.Contains(p) {
				model[p] = init
			}
		}

		for op := 0; op < 12; op++ {
			start := ival.Time(next() % 40)
			var iv ival.Interval
			if b := next(); b%16 == 15 {
				iv = ival.From(start)
			} else {
				iv = ival.New(start, start+ival.Time(b%6)) // width 0 = empty
			}
			val := palette[int(next())%len(palette)]

			oracle = checkSetAgainstOracle(t, s, oracle, iv, val)
			if iv.IsEmpty() || !life.ContainsInterval(iv) {
				continue // checked above: failed on both sides, nothing changed
			}
			for _, p := range samples {
				if iv.Contains(p) && life.Contains(p) {
					model[p] = val
				}
			}

			for _, p := range samples {
				got, ok := s.Get(p)
				want, inLife := model[p]
				if ok != inLife {
					t.Fatalf("op %d: Get(%d) ok=%v, want %v (lifespan %v)", op, p, ok, inLife, life)
				}
				// A fused partition keeps its earlier half's value, so Get may
				// return an equal value rather than the identical one.
				if ok && !sameValue(got, want) && !warp.ValueEqual(got, want) {
					t.Fatalf("op %d: Get(%d) = %v, model %v\nparts: %v", op, p, got, want, s.Parts())
				}
			}
		}
	})
}
