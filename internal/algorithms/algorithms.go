// Package algorithms implements the 12 time-independent and time-dependent
// temporal graph algorithms of Sec. V of the ICM paper as interval-centric
// programs: BFS, WCC, SCC and PageRank (TI); and SSSP, EAT, FAST, LD, TMST,
// RH, LCC and TC (TD).
//
// Each algorithm is a constructor returning a core.Program plus the
// core.Options it needs; Run* helpers wire the two. The time-dependent
// algorithms read the "travel-time" and "travel-cost" edge properties; the
// time-independent ones use no properties, exactly as in the paper's
// evaluation setup.
package algorithms

import (
	"fmt"
	"math"

	"graphite/internal/codec"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// Unreachable is the state value of a vertex interval no journey reaches.
const Unreachable = int64(math.MaxInt64)

// The path algorithms declare the travel labels through travelLabels, so a
// slot constant names the same label in Options.PropLabels and in
// VertexCtx.PieceProp.
const (
	slotTravelTime = iota
	slotTravelCost
)

func travelLabels() []string {
	return []string{slotTravelTime: tgraph.PropTravelTime, slotTravelCost: tgraph.PropTravelCost}
}

// pieceTravel reads the travel-time and travel-cost properties of the edge
// piece being scattered over. Both must be present for the edge to be
// traversable.
func pieceTravel(v *core.VertexCtx) (tt, tc int64, ok bool) {
	tt, ok1 := v.PieceProp(slotTravelTime)
	tc, ok2 := v.PieceProp(slotTravelCost)
	return tt, tc, ok1 && ok2
}

// minInt64 folds two int64 message payloads to their minimum; the shared
// warp combiner of the monotone path algorithms.
func minInt64(a, b codec.Word) codec.Word {
	if a.Int() < b.Int() {
		return a
	}
	return b
}

// maxInt64 folds two int64 message payloads to their maximum.
func maxInt64(a, b codec.Word) codec.Word {
	if a.Int() > b.Int() {
		return a
	}
	return b
}

// stateCodec is the core.StateCoder codec of a program whose states are
// structs of int64s: layout names a state's int64 fields and its
// pending-origin list (nil when the type has none), which travel as one list
// the way codec.Int64Slice writes it, the fields first. The programs only
// ever hold a nil or a non-empty pending list, so an empty one decodes to nil.
type stateCodec[T any] struct {
	layout func(*T) (fields []*int64, pending *[]int64)
}

// Append implements codec.Payload.
func (c stateCodec[T]) Append(buf []byte, v any) []byte {
	s := v.(T)
	fields, pending := c.layout(&s)
	var list []int64
	for _, f := range fields {
		list = append(list, *f)
	}
	if pending != nil {
		list = append(list, *pending...)
	}
	return codec.Int64Slice{}.Append(buf, list)
}

// Decode implements codec.Payload.
func (c stateCodec[T]) Decode(buf []byte) (any, int, error) {
	var s T
	fields, pending := c.layout(&s)
	v, n, err := codec.Int64Slice{}.Decode(buf)
	if err != nil {
		return nil, 0, err
	}
	list := v.([]int64)
	if len(list) < len(fields) || pending == nil && len(list) > len(fields) {
		return nil, 0, fmt.Errorf("%w: %d values for a state of %d fields", codec.ErrCorrupt, len(list), len(fields))
	}
	for i, f := range fields {
		*f = list[i]
	}
	if rest := list[len(fields):]; len(rest) > 0 {
		*pending = rest
	}
	return s, n, nil
}

// IntervalValue is a decoded 〈interval, int64〉 state entry exposed to
// callers reading algorithm results.
type IntervalValue struct {
	Interval ival.Interval
	Value    int64
}

// Int64States decodes a vertex's final partitioned state into int64 entries,
// dropping partitions that still hold the init value sentinel.
func Int64States(st *core.PartitionedState, skip int64) []IntervalValue {
	var out []IntervalValue
	for _, p := range st.Parts() {
		v, ok := p.Value.(int64)
		if !ok || v == skip {
			continue
		}
		out = append(out, IntervalValue{Interval: p.Interval, Value: v})
	}
	return out
}

// MinInt64State returns the minimum int64 value across a vertex's
// partitions, or skip when none beat it.
func MinInt64State(st *core.PartitionedState, skip int64) int64 {
	best := skip
	for _, p := range st.Parts() {
		if v, ok := p.Value.(int64); ok && v < best {
			best = v
		}
	}
	return best
}

// runWith executes a program with explicit options; a test seam shared by
// the algorithm test suites.
func runWith(g *tgraph.Graph, prog core.Program, opts core.Options) (*core.Result, error) {
	return core.Run(g, prog, opts)
}
