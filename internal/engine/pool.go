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

// msgSlab is a buffer of messages — an outbox, a worker's inbox — with the
// spill table of the payloads that do not fit a word: a KindSpill message's A
// indexes the table of the slab it is in. The table is the only thing in a
// slab the collector scans, and it is empty unless a program sends values
// outside the palette. A run draws its slabs from the arena when it starts and
// hands them back when it ends, so repeated runs reuse each other's buffers
// instead of growing their own.
type msgSlab struct {
	msgs  []Message
	spill []any
}

// hold takes a payload into the spill table and returns the word for it.
func (s *msgSlab) hold(v any) codec.Word {
	s.spill = append(s.spill, v)
	return codec.Word{K: codec.KindSpill, A: uint64(len(s.spill) - 1)}
}

// add appends m, moving a spilled payload over from the table m indexes.
func (s *msgSlab) add(m Message, from []any) {
	if m.Kind == codec.KindSpill {
		m.A = s.hold(from[m.A]).A
	}
	s.msgs = append(s.msgs, m)
}

// appendSlab appends the messages of src, moving its spilled payloads over.
func (s *msgSlab) appendSlab(src *msgSlab) {
	n, base := len(s.msgs), uint64(len(s.spill))
	s.msgs = append(s.msgs, src.msgs...)
	s.spill = append(s.spill, src.spill...)
	for i := n; len(src.spill) > 0 && i < len(s.msgs); i++ {
		if s.msgs[i].Kind == codec.KindSpill {
			s.msgs[i].A += base
		}
	}
}

// reset empties the slab. Messages are left as they are — there is nothing
// in one to pin or leak — and the spill table is scrubbed, so a payload never
// outlives the superstep that sent it: in particular one decoded from a batch
// that fault injection corrupted dies with the failed superstep.
func (s *msgSlab) reset() {
	s.msgs = s.msgs[:0]
	clear(s.spill)
	s.spill = s.spill[:0]
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
		return s
	}
	a.misses.Add(1)
	return &msgSlab{}
}

// put returns a slab to the arena, emptied.
func (a *messageArena) put(s *msgSlab) {
	if s == nil {
		return
	}
	s.reset()
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
	// outboxArena feeds worker outboxes and inboxes, a handful per run.
	outboxArena messageArena
	// batchSlabs feeds Outbound's encode buffer, which each batch is copied
	// out of at its final size.
	batchSlabs codec.SlabPool
)

// poolStats folds the message arena's and batch slab statistics into the
// totals the obs gauges publish.
func poolStats() (hits, misses, bytesReused int64) {
	h, m, b := outboxArena.stats()
	h2, m2, b2 := batchSlabs.Stats()
	return h + h2, m + m2, b + b2
}
