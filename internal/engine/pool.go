package engine

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"graphite/internal/codec"
)

// messageSize is the in-memory footprint of one Message, used to express
// arena reuse in bytes alongside the codec slab pool's byte counts.
const messageSize = int64(unsafe.Sizeof(Message{}))

// msgSlab is a pooled inbox buffer: the messages delivered to one vertex
// slot for one superstep. Slabs are handed out by the arena during the
// exchange phase and returned right after the vertex's Run call, so at
// steady state each superstep recycles the previous one's buffers instead
// of allocating.
type msgSlab struct {
	msgs []Message
}

// messageArena is a sync.Pool of message slabs with reuse statistics.
// The zero value is ready.
type messageArena struct {
	pool        sync.Pool
	hits        atomic.Int64
	misses      atomic.Int64
	bytesReused atomic.Int64
}

// get returns an empty slab, reusing a pooled one when available.
func (a *messageArena) get() *msgSlab {
	if v := a.pool.Get(); v != nil {
		s := v.(*msgSlab)
		a.hits.Add(1)
		a.bytesReused.Add(int64(cap(s.msgs)) * messageSize)
		s.msgs = s.msgs[:0]
		return s
	}
	a.misses.Add(1)
	return &msgSlab{}
}

// put returns a slab to the arena. Every element written since get is
// zeroed first: a pooled slab must never pin message payloads (the boxed
// `any` values) nor alias them into a later superstep — in particular,
// payloads decoded from a batch that fault injection corrupted die with
// the failed superstep instead of resurfacing from the pool.
func (a *messageArena) put(s *msgSlab) {
	if s == nil {
		return
	}
	clear(s.msgs)
	s.msgs = s.msgs[:0]
	a.pool.Put(s)
}

// stats reports cumulative arena behaviour; bytes are capacity handed back
// out by hits, in Message-footprint bytes.
func (a *messageArena) stats() (hits, misses, bytesReused int64) {
	return a.hits.Load(), a.misses.Load(), a.bytesReused.Load()
}

// The pools are package-level: sync.Pool is designed for global sharing
// (per-P caches, GC-aware), and sharing lets repeated runs — the serving
// layer, the bench warm-up/measure pairs — reach steady state immediately
// instead of re-growing buffers per engine.
var (
	// msgArena feeds worker inbox slabs.
	msgArena messageArena
	// outboxArena feeds worker outboxes. A run holds a few of them, each
	// orders of magnitude larger than an inbox slab, hence an arena of their
	// own: out of msgArena a new run would mostly draw inbox-sized slabs and
	// grow them all over again.
	outboxArena messageArena
	// batchSlabs feeds the encode buffers of the transport ship phase.
	batchSlabs codec.SlabPool
)

// poolStats folds the message arenas' and batch slab statistics into the
// totals the obs gauges publish.
func poolStats() (hits, misses, bytesReused int64) {
	h, m, b := msgArena.stats()
	h2, m2, b2 := batchSlabs.Stats()
	h3, m3, b3 := outboxArena.stats()
	return h + h2 + h3, m + m2 + m3, b + b2 + b3
}
