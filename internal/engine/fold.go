package engine

import (
	"math/bits"
	"sync"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// This file is the sender half of message combining. Under a Config.Combiner
// a worker folds each of its outboxes when its compute phase ends, so a batch
// carries at most one inline message per (Dst, When) to whatever moves it:
// the in-process handoff, a Transport, or a Shard's Outbound.
//
// One association rule holds for every driver. Each source folds its own
// messages in send order, c(c(m1, m2), m3), keeping each survivor where its
// first message was; Shard.receive folds the per-source partials in its one
// delivery order, own outbox first, then peers ascending. The own outbox
// is placed first, into ranges that hold nothing yet, so it needs no fold
// on arrival: its own sender fold already left one message per key.
//
// The fold is one pass over the finished outbox rather than a probe per
// Context.SendWord: probing the index from inside the compute phase
// interleaves its random reads with the program's own, and measured slower
// than the arrival-only fold it replaces for in-process runs.

// foldIndex indexes the folded prefix of an outbox by (Dst, When): an
// open-addressed, linearly probed table, at most half full, whose slots hold
// a message's position plus one in their low half and 32 bits of its key's
// hash in their high half (zero is an empty slot), so a probe reads a message
// only when the hashes agree. A spilled message is never in it: it is never
// combined. An index is drawn for one fold pass at a time (foldIndexes).
type foldIndex struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)): a hash's top bits are its home slot
	n     int  // messages indexed
}

// foldIndexes pools the indexes of fold passes in flight, which keeps one
// table per running pass rather than one per pooled outbox.
var foldIndexes = sync.Pool{New: func() any { return new(foldIndex) }}

// foldMinSlots is the smallest table an index is given.
const foldMinSlots = 64

// foldHash mixes a message's key: its top bits pick the home slot, its low
// 32 bits are the key's tag.
func foldHash(dst int32, when ival.Interval) uint64 {
	return uint64(uint32(dst))*0x9E3779B97F4A7C15 ^
		uint64(when.Start)*0xC2B2AE3D27D4EB4F ^
		uint64(when.End)*0x165667B19E3779F9
}

// resize empties the index into a table of n slots, a power of two, reusing
// the one it has when that is large enough.
func (x *foldIndex) resize(n int) {
	if cap(x.slots) >= n {
		x.slots = x.slots[:n]
		clear(x.slots)
	} else {
		x.slots = make([]uint64, n)
	}
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	x.n = 0
}

// reset empties the index after a pass, sized for one like it: a table
// follows its outboxes' traffic instead of keeping whatever an earlier,
// larger superstep or run grew it to.
func (x *foldIndex) reset() {
	if x.n == 0 {
		return // nothing entered: still empty, and sized for a busier pass
	}
	n := foldMinSlots
	for n < 2*x.n+2 {
		n <<= 1
	}
	x.resize(n)
}

// entry returns m's slot in the index of s — the one of the inline message s
// holds for m's (Dst, When), or the empty slot m's goes in — and m's tag.
func (x *foldIndex) entry(s *msgSlab, m *Message) (*uint64, uint64) {
	if 2*(x.n+1) > len(x.slots) {
		x.regrow(s)
	}
	h := foldHash(m.Dst, m.When)
	tag, mask := h<<32, uint64(len(x.slots)-1)
	for i := h >> x.shift; ; i = (i + 1) & mask {
		p := &x.slots[i]
		if *p == 0 {
			return p, tag
		}
		if *p&^0xFFFFFFFF == tag {
			if o := &s.msgs[uint32(*p)-1]; o.Dst == m.Dst && o.When == m.When {
				return p, tag
			}
		}
	}
}

// put enters the message at position i into its empty slot p.
func (x *foldIndex) put(p *uint64, tag uint64, i int) {
	*p = tag | uint64(i+1)
	x.n++
}

// regrow doubles the table and enters the inline messages of s again: the
// folded prefix holds one per (Dst, When).
func (x *foldIndex) regrow(s *msgSlab) {
	x.resize(max(foldMinSlots, 2*len(x.slots)))
	for i := range s.msgs {
		if m := &s.msgs[i]; m.Kind != codec.KindSpill {
			p, tag := x.entry(s, m)
			x.put(p, tag, i)
		}
	}
}

// fold folds the inline messages of s under c in place: each (Dst, When)
// keeps the position of its first message, which becomes c(…c(m1, m2)…, mk)
// over its messages in order; spilled ones stay as they are, in order. The
// folded prefix is written over the messages already read. The index is
// left empty.
func (x *foldIndex) fold(s *msgSlab, c Combiner) {
	sent := s.msgs
	s.msgs = s.msgs[:0]
	for _, m := range sent {
		if m.Kind != codec.KindSpill {
			p, tag := x.entry(s, &m)
			if *p != 0 {
				o := &s.msgs[uint32(*p)-1]
				w := c(o.Word(), m.Word())
				o.Kind, o.A, o.B = w.K, w.A, w.B
				continue
			}
			x.put(p, tag, len(s.msgs))
		}
		s.msgs = append(s.msgs, m)
	}
	x.reset()
}

// foldOutboxes ends a compute phase under a combiner: every outbox is
// folded before anything reads it.
func (s *Shard) foldOutboxes() {
	c := s.eng.cfg.Combiner
	if c == nil {
		return
	}
	x := foldIndexes.Get().(*foldIndex)
	for _, ob := range s.outbox {
		x.fold(ob, c)
	}
	foldIndexes.Put(x)
}
