package engine

import (
	"runtime"
	"slices"
	"sort"
	"time"
)

// This file is the compute-phase scheduler: dense active frontiers (always
// on) and chunked work stealing (opt-in via Config.Steal).
//
// Frontier lifecycle. `active []bool` stays the dedup bitmap, but every
// false→true transition also appends the slot to the worker's grow-only
// `frontier` list, so the compute phase iterates exactly the activated slots
// instead of scanning all of them. The frontier is built in delivery order,
// sorted ascending at the start of compute (so message emission order matches
// the historical slot-ascending scan bit for bit), consumed, and reset at the
// end of the phase; checkpoint restore rebuilds it from the restored flags.
//
// Steal protocol. With Config.Steal, each worker's sorted frontier is split
// into fixed-size chunks behind a per-worker atomic claim cursor. A worker
// drains its own chunks first, then repeatedly claims a chunk from the peer
// with the most unclaimed chunks left. Every chunk is claimed exactly once;
// stolen chunks execute against the owner's vertex state (inbox slabs, active
// flags) — safe because chunks cover disjoint slots — while metric partials
// and ICM scratch workspaces belong to the executing worker. Sends from a
// chunk land in the chunk's private per-destination lanes; after the phase
// barrier each owner concatenates its chunks' lanes into its real outboxes in
// chunk (= slot-ascending) order, so the bytes put on the wire are identical
// whether stealing is on, off, or racy in timing.

// DefaultStealChunk is the frontier-slots-per-chunk granularity when
// Config.Steal is set and Config.StealChunk is zero. Chunks are the steal
// unit: smaller chunks balance better but cost more claim traffic and lane
// merges.
const DefaultStealChunk = 64

// stealYieldStride is how many chunks a thief steals between cooperative
// yields when workers outnumber Ps (see runChunks).
const stealYieldStride = 16

// chunk is one stealable slice of a worker's scheduled slot list, with
// private per-destination outbox lanes so concurrent executors never share
// an append target. Both the chunk structs and their lanes are grow-only.
type chunk struct {
	lo, hi int32     // bounds into the owner's sched list
	lanes  []msgSlab // per destination worker; merged at the barrier
}

// activate marks a local slot active and, on the false→true transition,
// appends it to the dense frontier. Callers run on the owning worker's
// goroutine (delivery or Init), never concurrently for one worker.
func (w *worker) activate(slot int) {
	if !w.active[slot] {
		w.active[slot] = true
		w.frontier = append(w.frontier, int32(slot))
	}
}

// prepareSched fixes the slot list the imminent compute phase iterates: the
// frontier, sorted ascending so execution order matches the historical
// full-array scan, or a lazily built all-slots list under ActivateAll.
func (w *worker) prepareSched() {
	if w.eng.cfg.ActivateAll {
		if w.allSlots == nil {
			w.allSlots = make([]int32, len(w.local))
			for i := range w.allSlots {
				w.allSlots[i] = int32(i)
			}
		}
		w.sched = w.allSlots
		return
	}
	slices.Sort(w.frontier)
	w.sched = w.frontier
}

// finishSched ends a compute phase: the consumed frontier resets (delivery
// during the next exchange rebuilds it) and the schedule is dropped.
func (w *worker) finishSched() {
	w.frontier = w.frontier[:0]
	w.sched = nil
}

// rebuildFrontier derives the frontier from the active flags; checkpoint
// restore uses it, and the result is sorted by construction.
func (w *worker) rebuildFrontier() {
	w.frontier = w.frontier[:0]
	for slot, a := range w.active {
		if a {
			w.frontier = append(w.frontier, int32(slot))
		}
	}
}

// runSlots executes the program over the given slots of owner's vertex set,
// recycling consumed inbox slabs and clearing active flags exactly like the
// historical static loop. ctx belongs to the executing worker; owner may be
// a different worker when the slots come from a stolen chunk.
func (e *Engine) runSlots(ctx *Context, owner *worker, slots []int32) {
	for _, s := range slots {
		if e.aborted() {
			return
		}
		slot := int(s)
		v := owner.local[slot]
		ctx.vertex = v
		ctx.slot = slot
		var msgs []Message
		ctx.spill = nil
		if sl := owner.inbox[slot]; sl != nil {
			msgs, ctx.spill = sl.msgs, sl.spill
		}
		if !e.guardedCall(int(v), func() { e.program.Run(ctx, msgs) }) {
			// A panicking vertex keeps its slab: rollback recycles every
			// live inbox slab before replaying.
			return
		}
		if sl := owner.inbox[slot]; sl != nil {
			owner.inbox[slot] = nil
			msgArena.put(sl)
		}
		owner.active[slot] = false
	}
}

// computeStatic is the stealing-off compute phase: one worker, its own
// frontier, sends going straight to its outboxes.
func (w *worker) computeStatic() {
	e := w.eng
	phaseStart := time.Now()
	defer func() {
		w.computeNS = time.Since(phaseStart).Nanoseconds()
		w.stealNS = 0
	}()
	w.prepareSched()
	w.cctx = Context{eng: e, w: w}
	e.runSlots(&w.cctx, w, w.sched)
	w.finishSched()
}

// prepareChunks cuts the worker's schedule into stealable chunks and resets
// the claim cursor. Chunk structs and lanes grow once and are reused, so a
// steady-state superstep allocates nothing here. Every lane is reset first:
// an aborted superstep can leave unmerged lanes behind.
func (w *worker) prepareChunks() {
	e := w.eng
	for i := range w.chunks {
		for d := range w.chunks[i].lanes {
			w.chunks[i].lanes[d].reset()
		}
	}
	w.prepareSched()
	size := e.chunkSize
	n := (len(w.sched) + size - 1) / size
	for len(w.chunks) < n {
		w.chunks = append(w.chunks, chunk{lanes: make([]msgSlab, len(e.workers))})
	}
	for i := 0; i < n; i++ {
		lo := i * size
		hi := lo + size
		if hi > len(w.sched) {
			hi = len(w.sched)
		}
		w.chunks[i].lo, w.chunks[i].hi = int32(lo), int32(hi)
	}
	w.nchunks = n
	w.cursor.Store(0)
}

// runChunks is one worker's share of a stealing compute phase: drain the own
// deque, then steal chunks from the most-loaded peer until no unclaimed work
// remains anywhere. computeNS gets the time spent executing chunks (own and
// stolen); the remainder of the phase wall time is idle-wait, reported as
// stealNS.
func (w *worker) runChunks() {
	e := w.eng
	phaseStart := time.Now()
	// When workers outnumber Ps, one thief that went idle first could hog
	// its P and drain a victim's whole deque before the other idle workers
	// are ever scheduled; yielding every stealYieldStride stolen chunks
	// keeps the steal phase interleaved among thieves without paying a
	// scheduler round-trip per chunk. Workers draining their own deque
	// never yield — round-robining owners at chunk granularity would
	// equalize progress in chunks per pass and leave nothing to steal.
	// With a P per worker the yield is skipped entirely; peers claim
	// concurrently.
	yield := runtime.GOMAXPROCS(0) < len(e.workers)
	stolen := 0
	var execNS int64
	w.cctx = Context{eng: e, w: w}
	for {
		i := int(w.cursor.Add(1)) - 1
		if i >= w.nchunks {
			break
		}
		execNS += e.runChunk(&w.cctx, w, &w.chunks[i])
		if e.aborted() {
			break
		}
	}
	for !e.aborted() {
		v := e.mostLoaded()
		if v == nil {
			break
		}
		i := int(v.cursor.Add(1)) - 1
		if i >= v.nchunks {
			continue // lost the race for the victim's last chunk; re-pick
		}
		execNS += e.runChunk(&w.cctx, v, &v.chunks[i])
		w.steals++
		stolen++
		if yield && stolen%stealYieldStride == 0 {
			runtime.Gosched()
		}
	}
	w.computeNS = execNS
	w.stealNS = 0
	if ns := time.Since(phaseStart).Nanoseconds() - execNS; ns > 0 {
		w.stealNS = ns
	}
}

// runChunk executes one claimed chunk against its owner's state, routing
// sends into the chunk's private lanes, and returns the elapsed time.
func (e *Engine) runChunk(ctx *Context, owner *worker, ch *chunk) int64 {
	start := time.Now()
	ctx.lanes = ch.lanes
	e.runSlots(ctx, owner, owner.sched[ch.lo:ch.hi])
	ctx.lanes = nil
	return time.Since(start).Nanoseconds()
}

// mostLoaded picks the worker with the most unclaimed chunks, or nil when
// every chunk everywhere has been claimed. Reads race benignly with claim
// cursors: a stale count only sends the thief to a drier victim, and the
// claim itself is the atomic arbiter.
func (e *Engine) mostLoaded() *worker {
	var best *worker
	bestLeft := 0
	for _, v := range e.workers {
		if left := v.nchunks - int(v.cursor.Load()); left > bestLeft {
			bestLeft = left
			best = v
		}
	}
	return best
}

// mergeChunks concatenates this worker's chunk lanes into its real outboxes
// in chunk order. Chunks partition the sorted schedule, so the concatenation
// reproduces the exact slot-ascending emission order of the static loop —
// results are byte-identical regardless of which worker executed each chunk.
func (w *worker) mergeChunks() {
	for i := 0; i < w.nchunks; i++ {
		ch := &w.chunks[i]
		for d := range ch.lanes {
			if lane := &ch.lanes[d]; len(lane.msgs) > 0 {
				w.outbox[d].addAll(lane)
				lane.reset()
			}
		}
	}
	w.finishSched()
}

// imbalanceMilli reports the latest compute phase's max/mean worker compute
// time in thousandths: 1000 is a perfectly balanced superstep, W·1000 is one
// straggler doing everything. Under stealing computeNS counts executed work
// only, so the gauge shows the balance stealing actually achieved.
func (e *Engine) imbalanceMilli() int64 {
	var sum, max int64
	for _, w := range e.workers {
		ns := w.computeNS
		sum += ns
		if ns > max {
			max = ns
		}
	}
	if sum <= 0 {
		return 0
	}
	mean := sum / int64(len(e.workers))
	if mean == 0 {
		return 0
	}
	return max * 1000 / mean
}

// PartitionBalanced returns a Partitioner that greedily bin-packs vertices
// onto workers by the given per-vertex work weights (largest weight first,
// onto the least-loaded worker), instead of the default index-modulo hash.
// It is the static answer to compute skew — hub vertices spread across
// workers up front — and the baseline the skew bench compares work stealing
// against. Weights are typically Σ(out-degree · lifespan length), e.g. from
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
