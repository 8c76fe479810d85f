package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

// arrive is the fold a receiver applies as a message reaches a list: an
// inline message folds into the first inline one with its (Dst, When),
// c(held, m); any other is appended.
func arrive(list []Message, m Message, c Combiner) []Message {
	if m.Kind != codec.KindSpill {
		for i := range list {
			if o := &list[i]; o.Dst == m.Dst && o.When == m.When && o.Kind != codec.KindSpill {
				*o = newMessage(o.Dst, o.When, c(o.Word(), m.Word()))
				return list
			}
		}
	}
	return append(list, m)
}

// arrivalFold is msgs arriving, in order, at an empty list: the fold the
// receiver alone applied before senders folded their outboxes.
func arrivalFold(msgs []Message, c Combiner) []Message {
	var out []Message
	for _, m := range msgs {
		out = arrive(out, m, c)
	}
	return out
}

// foldSend is one send of a FuzzSenderCombine script.
type foldSend struct {
	src, dst int
	when     ival.Interval
	w        codec.Word
	spill    any // the payload of a spilled send, nil for an inline one
}

// foldScript decodes a fuzz script for n workers and numV vertices: three
// bytes a send — sending worker and destination, interval (a few, so keys
// collide) and whether the payload spills, value — as int words, or as float
// words with −0, NaN and ±Inf among them.
func foldScript(script []byte, n, numV int, float bool) []foldSend {
	intervals := []ival.Interval{ival.Point(3), ival.Point(4), ival.New(2, 9), ival.From(5), ival.Universe}
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	var sends []foldSend
	for i := 0; i+3 <= len(script) && len(sends) < 256; i += 3 {
		b0, b1, b2 := script[i], script[i+1], script[i+2]
		s := foldSend{src: int(b0>>4) % n, dst: int(b0&15) % numV, when: intervals[int(b1&15)%len(intervals)]}
		v := int64(int8(b2)) << (b1 >> 4 & 7 * 7) // payloads of every varint width
		switch {
		case b1&0x80 != 0:
			s.spill = []int64{v}
		case !float:
			s.w = codec.IntWord(v)
		case b2 < 4:
			s.w = codec.FloatWord(specials[b2])
		default:
			s.w = codec.FloatWord(float64(int8(b2)) * 0.1)
		}
		sends = append(sends, s)
	}
	return sends
}

// foldEntry is a delivered message as compared: a spilled payload resolved,
// its table index dropped.
type foldEntry struct {
	Dst  int32
	When ival.Interval
	Kind codec.Kind
	A, B uint64
	P    string
}

func foldEntryOf(m Message, spill []any) foldEntry {
	if m.Kind == codec.KindSpill {
		return foldEntry{Dst: m.Dst, When: m.When, Kind: m.Kind, P: fmt.Sprint(spill[m.A])}
	}
	return foldEntry{Dst: m.Dst, When: m.When, Kind: m.Kind, A: m.A, B: m.B}
}

// FuzzSenderCombine holds the sender's fold to the arrival-only fold it
// replaced. A script of sends — from any worker of a 1–3 worker engine, to any
// vertex, inline or spilled — runs under a min combiner on int words or a sum
// on float words; each worker folds its outboxes as a compute phase ends, and
// delivers in process or over the wire (encoded through a codec with only the
// any form, which carries both). Every inbox must be what arrival folding
// alone gives with each source's messages folded first, in send order, and
// those partials folded in delivery order — own outbox, then peers ascending
// — bit for bit; a spilled payload is never folded, nor folded into.
func FuzzSenderCombine(f *testing.F) {
	f.Add(uint8(1), true, []byte{0x01, 0x00, 10, 0x11, 0x00, 20, 0x01, 0x00, 30, 0x13, 0x02, 2, 0x03, 0x02, 5, 0x13, 0x02, 7})
	f.Add(uint8(2), false, []byte{0x04, 0x13, 0x80, 0x14, 0x03, 0x7f, 0x24, 0x83, 9, 0x04, 0x73, 1, 0x24, 0x03, 0x81})
	f.Add(uint8(0), true, []byte{0x02, 0x01, 1, 0x02, 0x81, 2, 0x02, 0x01, 3})
	// Three workers' partials for one vertex whose float sum depends on the
	// order they arrive in: (0.4 + 0.4) + 0.6 ≠ (0.4 + 0.6) + 0.4.
	f.Add(uint8(2), true, []byte{0x00, 0x00, 4, 0x10, 0x00, 4, 0x20, 0x00, 6})
	// A peer's inline message for a vertex and interval whose first placed
	// message is the own outbox's spilled one: it must not fold into it.
	f.Add(uint8(1), false, []byte{0x00, 0x80, 5, 0x10, 0x00, 7})
	f.Fuzz(func(t *testing.T, workers uint8, float bool, script []byte) {
		const numV = 7
		n := int(workers%3) + 1
		c := minInt64Combiner
		if float {
			c = sumCombiner
		}
		sends := foldScript(script, n, numV, float)

		// The oracle: every source's sends to a worker folded as they would
		// arrive at an empty list, then arriving in delivery order. A spilled
		// send carries its payload's index in B, which no fold touches.
		var payloads []any
		want := make([][]foldEntry, numV)
		var wantDelivered int64
		for d := 0; d < n; d++ {
			inbox := make([][]Message, numV)
			for k := 0; k < n; k++ {
				src := d // own outbox first, then peers ascending
				if k > 0 {
					src = k - 1
					if src >= d {
						src++
					}
				}
				var batch []Message
				for _, s := range sends {
					if s.src != src || s.dst%n != d {
						continue
					}
					w := s.w
					if s.spill != nil {
						w = codec.Word{K: codec.KindSpill, B: uint64(len(payloads))}
						payloads = append(payloads, s.spill)
					}
					batch = append(batch, newMessage(int32(s.dst), s.when, w))
				}
				batch = arrivalFold(batch, c)
				wantDelivered += int64(len(batch))
				for _, m := range batch {
					inbox[m.Dst] = arrive(inbox[m.Dst], m, c)
				}
			}
			for v, msgs := range inbox {
				for _, m := range msgs {
					if m.Kind == codec.KindSpill {
						p := payloads[m.B]
						m.A, m.B = 0, 0
						want[v] = append(want[v], foldEntryOf(m, []any{p}))
						continue
					}
					want[v] = append(want[v], foldEntryOf(m, nil))
				}
			}
		}

		for _, wire := range []bool{false, true} {
			e, err := New(numV, idleProgram{}, Config{NumWorkers: n, Combiner: c, PayloadCodec: anyCodec{}})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range e.workers {
				w.drawBuffers()
			}
			for _, s := range sends {
				ctx := &Context{eng: e, w: e.workers[s.src]}
				if s.spill != nil {
					ctx.SendWord(s.dst, s.when, codec.Word{K: codec.KindSpill}, []any{s.spill})
				} else {
					ctx.SendWord(s.dst, s.when, s.w, nil)
				}
			}
			for _, w := range e.workers {
				w.foldOutboxes()
			}
			var delivered int64
			for _, w := range e.workers {
				var k int64
				if wire {
					var batches [][]byte
					for src, p := range e.workers {
						if src != w.id {
							batches = append(batches, e.encodeBatch(nil, p.outbox[w.id]))
						}
					}
					k, err = w.receiveWire(batches)
				} else {
					k, err = w.receive(n-1, w.stagePeer)
				}
				if err != nil {
					t.Fatal(err)
				}
				delivered += k
			}
			if delivered != wantDelivered {
				t.Errorf("wire %v: %d messages delivered, want %d", wire, delivered, wantDelivered)
			}
			for v := 0; v < numV; v++ {
				var got []foldEntry
				w := e.workers[v%n]
				for _, m := range w.received(v / n) {
					got = append(got, foldEntryOf(m, w.inbox.spill))
				}
				if !slices.Equal(got, want[v]) {
					t.Errorf("wire %v: vertex %d was delivered\n  %v\nwant\n  %v", wire, v, got, want[v])
				}
			}
			e.releaseBuffers()
		}
	})
}

// TestFoldComparesKeysNotTags: two keys for one vertex whose hashes agree in
// their home slot and their tag must still not fold together — the index
// compares the messages themselves before it folds.
func TestFoldComparesKeysNotTags(t *testing.T) {
	const dst = 1
	key := func(start ival.Time) uint64 { // home slot in a fresh 64-slot table, and tag
		h := foldHash(dst, ival.Point(start))
		return h>>58<<32 | h&0xFFFFFFFF
	}
	seen := map[uint64]ival.Time{}
	var a, b ival.Time
	for start := ival.Time(0); ; start++ {
		k := key(start)
		if prev, ok := seen[k]; ok {
			a, b = prev, start
			break
		}
		seen[k] = start
	}
	s := &msgSlab{}
	s.add(newMessage(dst, ival.Point(a), codec.IntWord(5)), nil)
	s.add(newMessage(dst, ival.Point(b), codec.IntWord(7)), nil)
	x := new(foldIndex)
	x.fold(s, minInt64Combiner)
	if len(s.msgs) != 2 || s.msgs[0].Word().Int() != 5 || s.msgs[1].Word().Int() != 7 {
		t.Errorf("points %d and %d share a home slot and a tag; folded to %v, want both as sent", a, b, s.msgs)
	}
}
