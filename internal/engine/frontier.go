package engine

import (
	"slices"
	"sort"
	"time"
)

// This file is the compute phase — the dense active frontier one shard
// iterates — and the placement policy that balances shards up front.
//
// Frontier lifecycle. `active []bool` stays the dedup bitmap, but every
// false→true transition also appends the slot to the shard's grow-only
// `frontier` list, so the compute phase iterates exactly the activated slots
// instead of scanning all of them. The frontier is built in delivery order,
// sorted ascending as receive lays the inbox out and again at the start of
// compute (so messages are emitted in slot order whatever order activations
// arrived in), consumed, and reset at the end of the phase. At a barrier it is the active set, which is what a
// checkpoint captures and restore re-activates.

// activate marks a local slot active and, on the false→true transition,
// appends it to the dense frontier. Callers run on the owning shard's
// goroutine (delivery or Init), never concurrently for one shard.
func (s *Shard) activate(slot int) {
	if !s.active[slot] {
		s.active[slot] = true
		s.frontier = append(s.frontier, int32(slot))
	}
}

// prepareSched returns the slot list the imminent compute phase iterates: the
// frontier, sorted ascending so execution order is that of a full-array scan,
// or a lazily built all-slots list under ActivateAll.
func (s *Shard) prepareSched() []int32 {
	if s.eng.cfg.ActivateAll {
		if s.allSlots == nil {
			s.allSlots = make([]int32, len(s.local))
			for i := range s.allSlots {
				s.allSlots[i] = int32(i)
			}
		}
		return s.allSlots
	}
	slices.Sort(s.frontier)
	return s.frontier
}

// finishSched ends a compute phase: the consumed frontier resets (delivery
// during the next exchange rebuilds it).
func (s *Shard) finishSched() { s.frontier = s.frontier[:0] }

// init is a shard's share of superstep-1 set-up: Program.Init on every
// vertex it owns, all of them active.
func (s *Shard) init() {
	e := s.eng
	ctx := Context{eng: e, w: s}
	for slot, v := range s.local {
		if e.aborted() {
			return
		}
		ctx.vertex = v
		ctx.slot = slot
		s.activate(slot)
		if !e.guardedCall(int(v), func() { e.program.Init(&ctx) }) {
			return
		}
	}
}

// compute is a shard's compute phase: the program over its own frontier in
// slot order, sends going straight to its outboxes, which a combiner folds
// once the frontier is done.
func (s *Shard) compute() {
	phaseStart := time.Now()
	defer func() { s.step.ComputeNS = time.Since(phaseStart).Nanoseconds() }()
	s.cctx = Context{eng: s.eng, w: s}
	s.runSlots(s.prepareSched())
	s.finishSched()
	s.foldOutboxes()
}

// runSlots executes the program over the given slots, emptying each one's
// inbox range and clearing its active flag as it goes: a range left behind
// would be delivered again.
func (s *Shard) runSlots(slots []int32) {
	e, ctx := s.eng, &s.cctx
	ctx.spill = s.inbox.spill
	for _, sl := range slots {
		if e.aborted() {
			return
		}
		slot := int(sl)
		v := s.local[slot]
		ctx.vertex = v
		ctx.slot = slot
		msgs := s.received(slot)
		if !e.guardedCall(int(v), func() { e.program.Run(ctx, msgs) }) {
			// A panicking vertex keeps its range: the superstep has failed,
			// and a restore overwrites every range.
			return
		}
		s.at[slot], s.end[slot] = 0, 0
		s.active[slot] = false
	}
}

// PartitionBalanced returns a Partitioner that greedily bin-packs vertices
// onto workers by the given per-vertex work weights (largest weight first,
// onto the least-loaded worker), instead of the default index-modulo hash.
// It is the answer to compute skew — hub vertices spread across workers up
// front. Weights are typically Σ(out-degree · lifespan length), e.g. from
// tgraph.Graph.WorkWeights. The assignment is deterministic; vertices
// outside the weight slice fall back to modulo hashing. The returned closure
// caches its assignment and is not safe for concurrent use (the engine calls
// it sequentially from New).
func PartitionBalanced(weights []int64) func(vertex, numWorkers int) int {
	var (
		cachedN int
		assign  []int32
	)
	return func(v, n int) int {
		if v < 0 || v >= len(weights) || n <= 0 {
			if n <= 0 {
				return 0
			}
			return v % n
		}
		if assign == nil || cachedN != n {
			assign = balancedAssign(weights, n)
			cachedN = n
		}
		return int(assign[v])
	}
}

// balancedAssign is the greedy longest-processing-time bin packing behind
// PartitionBalanced: stable-sort vertices by descending weight, place each on
// the least-loaded worker (ties: fewest vertices, then lowest id). The +1 per
// placement keeps zero-weight vertices spread instead of piling onto one bin.
func balancedAssign(weights []int64, n int) []int32 {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	load := make([]int64, n)
	count := make([]int, n)
	assign := make([]int32, len(weights))
	for _, v := range order {
		best := 0
		for w := 1; w < n; w++ {
			if load[w] < load[best] || (load[w] == load[best] && count[w] < count[best]) {
				best = w
			}
		}
		assign[v] = int32(best)
		load[best] += weights[v] + 1
		count[best]++
	}
	return assign
}
