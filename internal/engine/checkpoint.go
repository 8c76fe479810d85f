package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"graphite/internal/codec"
)

// Snapshotter is the Program extension a Shard's durable capture requires.
// AppendSnapshot appends the program's state to buf; RestoreSnapshot
// replaces the live state with one AppendSnapshot wrote. The bytes may come
// from disk, so RestoreSnapshot checks all of them before it changes
// anything and reports malformed ones as an error wrapping codec.ErrCorrupt
// or ErrCheckpointCorrupt. One capture may be restored more than once (the
// cluster can lose a second worker before its next generation).
type Snapshotter interface {
	AppendSnapshot(buf []byte) ([]byte, error)
	RestoreSnapshot(data []byte) error
}

// ErrCapture is wrapped into the error of a capture that cannot encode what
// it holds — a program state or an inbox payload outside its codec.
var ErrCapture = errors.New("engine: checkpoint capture failed")

// ckptVersion tags the capture format.
const ckptVersion = 1

// capture appends the capture of shards ws — the one a Shard is, or every
// shard of an engine — to buf:
//
//	u8 version | uvarint superstep | uvarint len, program snapshot
//	per worker: uvarint n | n active slots, ascending
//	            uvarint n | n × (uvarint slot, uvarint len, encoded inbox batch), ascending by slot
//
// Identical state yields identical bytes. It runs only at a barrier, where a
// worker's frontier is exactly its active set; sorting it in place is what
// the next compute phase does anyway.
func (e *Engine) capture(buf []byte, ws []*Shard) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: %v", ErrCapture, r)
		}
	}()
	buf = append(buf, ckptVersion)
	buf = binary.AppendUvarint(buf, uint64(e.superstp))
	start := len(buf)
	if buf, err = e.program.(Snapshotter).AppendSnapshot(buf); err != nil {
		return nil, fmt.Errorf("%w: program snapshot: %w", ErrCapture, err)
	}
	buf = prefixLen(buf, start)
	for _, w := range ws {
		slices.Sort(w.frontier)
		buf = binary.AppendUvarint(buf, uint64(len(w.frontier)))
		for _, slot := range w.frontier {
			buf = binary.AppendUvarint(buf, uint64(slot))
		}
		n := 0
		for slot := range w.local {
			if w.received(slot) != nil {
				n++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(n))
		for slot := range w.local {
			if msgs := w.received(slot); msgs != nil {
				buf = binary.AppendUvarint(buf, uint64(slot))
				start := len(buf)
				buf = prefixLen(e.encodeBatch(buf, &msgSlab{msgs: msgs, spill: w.inbox.spill}), start)
			}
		}
	}
	return buf, nil
}

// prefixLen puts the length of buf[start:] in front of it as a uvarint: the
// bytes move up by the prefix's width in place, so a section is encoded
// straight into the capture before its length is known.
func prefixLen(buf []byte, start int) []byte {
	n := len(buf) - start
	k := codec.UvarintLen(uint64(n))
	buf = append(buf, make([]byte, k)...)
	copy(buf[start+k:], buf[start:start+n])
	binary.PutUvarint(buf[start:], uint64(n))
	return buf
}

// readSlot pops a slot of n, which must come after *prev, and moves *prev to
// it.
func readSlot(r *codec.Reader, what string, n int, prev *int) int {
	s := int(r.Max(what, uint64(n)))
	if s >= n || s <= *prev {
		r.Fail("%s %d after %d of %d", what, s, *prev, n)
	}
	*prev = s
	return s
}

// restore rewinds workers ws to a capture of the same workers. Everything —
// the program snapshot included — is parsed and checked before anything
// changes: a malformed capture is an error wrapping ErrCheckpointCorrupt or
// codec.ErrCorrupt and leaves the engine as it was. On success the inboxes,
// active sets and superstep are the captured ones, and outboxes, partials —
// aggregator partials included — and any recorded failure are gone.
func (e *Engine) restore(data []byte, ws []*Shard) error {
	r := codec.NewReader(data, ErrCheckpointCorrupt)
	if v := r.Byte(); v != ckptVersion {
		r.Fail("unknown version %d", v)
	}
	superstep := r.Int("superstep")
	snap := r.Field("snapshot")
	// Each worker's inboxes decode into one fresh slab: ranges holds their
	// (slot, at, end) triples.
	actives := make([][]int, len(ws))
	inboxes := make([]*msgSlab, len(ws))
	ranges := make([][]int32, len(ws))
	for i, w := range ws {
		n, prev := len(w.local), -1
		actives[i] = make([]int, r.Max("active count", uint64(n)))
		for k := range actives[i] {
			actives[i][k] = readSlot(&r, "active slot", n, &prev)
		}
		in := &msgSlab{}
		inboxes[i], prev = in, -1
		for k := r.Max("inbox count", uint64(n)); k > 0 && r.Err == nil; k-- {
			slot := readSlot(&r, "inbox slot", n, &prev)
			batch := r.Field("inbox batch")
			if r.Err != nil {
				break
			}
			from := len(in.msgs)
			r.Err = e.decodeBatchInto(in, batch)
			for _, m := range in.msgs[from:] {
				if m.Dst != w.local[slot] {
					r.Fail("inbox of vertex %d holds a message for vertex %d", w.local[slot], m.Dst)
				}
			}
			ranges[i] = append(ranges[i], int32(slot), int32(from), int32(len(in.msgs)))
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	if err := e.program.(Snapshotter).RestoreSnapshot(snap); err != nil {
		return fmt.Errorf("engine: program snapshot: %w", err)
	}

	// Everything checked: recycle whatever the aborted superstep delivered —
	// including payloads decoded from corrupted frames, which put scrubs —
	// and install the capture, over every range.
	for i, w := range ws {
		outboxArena.put(w.inbox)
		w.inbox = inboxes[i]
		clear(w.at)
		clear(w.end)
		for rg := ranges[i]; len(rg) > 0; rg = rg[3:] {
			w.at[rg[0]], w.end[rg[0]] = rg[1], rg[2]
		}
		clear(w.active)
		w.frontier = w.frontier[:0]
		for _, slot := range actives[i] {
			w.activate(slot)
		}
		for _, ob := range w.outbox {
			ob.reset()
		}
		w.resetPartials()
	}
	e.superstp = superstep
	e.clearErr()
	return nil
}
