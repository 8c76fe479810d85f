package engine

import (
	"fmt"
	"sync"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// TestMessageArenaRecycles checks the arena contract: a recycled slab comes
// back empty but with its capacity intact, the hit/miss/bytes counters track
// the traffic, and put scrubs the spill table — the one part of a slab that
// holds pointers — so pooled memory never pins or aliases old payloads.
func TestMessageArenaRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("recycle contract skipped under -race: sync.Pool drops puts at random under the race detector")
	}
	var a messageArena
	s := a.get()
	if hits, misses, _ := a.stats(); hits != 0 || misses != 1 {
		t.Fatalf("first get: hits=%d misses=%d, want 0/1", hits, misses)
	}
	s.add(Message{Dst: 7, Kind: codec.KindSpill, When: ival.Universe}, []any{[]int64{12345}})
	wantCap := cap(s.msgs)
	a.put(s)

	s2 := a.get()
	if hits, misses, bytes := a.stats(); hits != 1 || misses != 1 || bytes != int64(wantCap)*messageSize {
		t.Fatalf("after recycle: hits=%d misses=%d bytes=%d, want 1/1/%d", hits, misses, bytes, int64(wantCap)*messageSize)
	}
	if len(s2.msgs) != 0 || cap(s2.msgs) != wantCap {
		t.Fatalf("recycled slab: len=%d cap=%d, want 0/%d", len(s2.msgs), cap(s2.msgs), wantCap)
	}
	// The retired contents must have been scrubbed: nothing poisoned (or
	// merely large) may survive in pooled memory.
	if len(s2.spill) != 0 || s2.spill[:1][0] != nil {
		t.Fatalf("recycled slab still holds old payload %v", s2.spill[:1])
	}
	a.put(s2)
	a.put(nil) // nil put is a harmless no-op
}

// chainProgram passes a token around a ring for a fixed number of supersteps,
// so every superstep delivers into the workers' inboxes.
type chainProgram struct {
	steps int
	n     int
}

func (p chainProgram) Init(*Context) {}

func (p chainProgram) Run(ctx *Context, msgs []Message) {
	if ctx.Superstep() < p.steps {
		ctx.Send((ctx.Vertex()+1)%p.n, ival.Universe, int64(1))
	}
}

// fanProgram stresses buffer reuse: every vertex sends to its ring neighbour
// and to a shared hot vertex each superstep, with payloads encoding
// (superstep, sender). Each receiver checks that every delivered payload was
// sent in the immediately preceding superstep — an inbox range delivered
// again, or delivery aliasing a buffer still being read, surfaces as a stale
// payload here (and as a report under -race).
type fanProgram struct {
	steps int
	n     int
	fail  func(format string, args ...any)
}

func (p fanProgram) Init(*Context) {}

func (p fanProgram) Run(ctx *Context, msgs []Message) {
	for _, m := range msgs {
		v := m.Word().Int()
		if got, want := v/1000, int64(ctx.Superstep()-1); got != want {
			p.fail("vertex %d superstep %d: payload %d sent at superstep %d, want %d — inbox aliased",
				ctx.Vertex(), ctx.Superstep(), v, got, want)
		}
	}
	if ctx.Superstep() < p.steps {
		tag := int64(ctx.Superstep())*1000 + int64(ctx.Vertex())
		ctx.Send((ctx.Vertex()+1)%p.n, ival.Universe, tag)
		ctx.Send(0, ival.Point(ival.Time(ctx.Superstep())), tag)
	}
}

// TestPoolNoAliasingAcrossSupersteps runs the fan-in workload with many
// workers shipping into the same destinations while each refills its inbox
// every exchange. Run under `make race`, it doubles as the aliasing race
// test.
func TestPoolNoAliasingAcrossSupersteps(t *testing.T) {
	const n, steps = 32, 12
	var mu sync.Mutex
	var failure string
	p := fanProgram{steps: steps, n: n, fail: func(format string, args ...any) {
		mu.Lock()
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
		mu.Unlock()
	}}
	e, err := New(n, p, Config{NumWorkers: 4, PayloadCodec: codec.Int64{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestPoolGaugesPublished runs a real multi-superstep engine three times over
// one registry and checks the observability wiring: the gauges show the
// message arena being hit and bytes being reused — a run draws its outboxes
// and inbox from what the one before it released.
func TestPoolGaugesPublished(t *testing.T) {
	reg := obs.NewRegistry()
	for range 3 {
		e, err := New(4, chainProgram{steps: 6, n: 4}, Config{
			NumWorkers:   2,
			PayloadCodec: codec.Int64{},
			Registry:     reg,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if hits := reg.Gauge(obs.GPoolHits).Load(); hits <= 0 {
		t.Errorf("%s = %d after three runs, want > 0", obs.GPoolHits, hits)
	}
	if reused := reg.Gauge(obs.GBytesReused).Load(); reused <= 0 {
		t.Errorf("%s = %d after three runs, want > 0", obs.GBytesReused, reused)
	}
	if misses := reg.Gauge(obs.GPoolMisses).Load(); misses <= 0 {
		t.Errorf("%s = %d, want > 0 (a process's first draws must miss)", obs.GPoolMisses, misses)
	}
}

// TestOutboxesRecycledScrubbed checks the engine's half of the arena
// contract: when a run ends its outboxes go back to the arena with no payload
// behind the spill table's length either — emptying an outbox scrubs the
// table — and the next engine starts from that capacity, in an outbox or its
// inbox, which share the arena, instead of growing its own.
func TestOutboxesRecycledScrubbed(t *testing.T) {
	e, err := New(4, idleProgram{}, Config{NumWorkers: 2, PayloadCodec: codec.Int64Slice{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := e.workers[0]
	w.drawBuffers()
	ctx := &Context{eng: e, w: w}
	for i := 0; i < 100; i++ {
		ctx.Send(1, ival.Universe, []int64{777})
	}
	if len(w.outbox[1].spill) != 100 {
		t.Fatalf("%d payloads spilled, want 100", len(w.outbox[1].spill))
	}
	grown := cap(w.outbox[1].msgs)
	w.outbox[1].reset() // as the exchange phase leaves it
	e.releaseBuffers()
	for d, ob := range w.outbox {
		if ob != nil {
			t.Errorf("outbox %d still held after release", d)
		}
	}

	e2, err := New(4, idleProgram{}, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reused := false
	for _, w2 := range e2.workers {
		w2.drawBuffers()
		for d, ob := range append(w2.outbox, w2.inbox) {
			if len(ob.msgs) != 0 || len(ob.spill) != 0 {
				t.Errorf("fresh buffer %d has length %d, %d spilled", d, len(ob.msgs), len(ob.spill))
			}
			for _, v := range ob.spill[:cap(ob.spill)] {
				if v != nil {
					t.Fatalf("pooled buffer still holds payload %v", v)
				}
			}
			reused = reused || cap(ob.msgs) == grown
		}
	}
	if raceEnabled {
		return // sync.Pool drops puts at random under the race detector
	}
	if !reused {
		t.Errorf("second engine did not start from the released outbox (capacity %d)", grown)
	}
}
