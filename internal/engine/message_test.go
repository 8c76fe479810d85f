package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// TestMessageIsWords is the layout the rest rests on: a message is 40 bytes —
// no more than when its payload was an interface — and nothing in it, however
// deep, is something the collector follows.
func TestMessageIsWords(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size > 40 {
		t.Errorf("Message is %d bytes, want at most 40", size)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice, reflect.String,
			reflect.Map, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: a message must hold no pointer", path, ty.Kind())
		}
	}
	walk("Message", reflect.TypeOf(Message{}))
	walk("Word", reflect.TypeOf(codec.Word{}))
}

// oneMessageBatch hand-encodes a batch of one int64 message.
func oneMessageBatch(dst uint64) []byte {
	b := binary.AppendUvarint(nil, 1)
	b = binary.AppendUvarint(b, dst)
	b = codec.AppendInterval(b, ival.Point(3))
	return binary.AppendVarint(b, 9)
}

// batchTransport hands every receiver the same crafted batch.
type batchTransport struct{ batch []byte }

func (batchTransport) Send(src, dst int, batch []byte) error { return nil }
func (tr batchTransport) Recv(dst int) ([][]byte, error)     { return [][]byte{tr.batch}, nil }
func (batchTransport) Close() error                          { return nil }

// TestForeignDestinationIsCorrupt: a batch comes from a peer, and a
// destination that is no vertex of the run — past the vertex count, past
// int32, or wrapping around it to a vertex that exists — is a corrupt batch
// to each of the three things that decode one, never an index out of range
// and never a delivery to the wrong vertex.
func TestForeignDestinationIsCorrupt(t *testing.T) {
	const numV = 4
	cfg := Config{NumWorkers: 2, PayloadCodec: codec.Int64{}}
	for _, dst := range []uint64{6, 1 << 31, 1 << 40} {
		batch := oneMessageBatch(dst)

		s, err := NewShard(numV, snapIdleProgram{}, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := s.Deliver([][]byte{batch}); !errors.Is(err, codec.ErrCorrupt) || n != 0 {
			t.Errorf("Deliver of a message for vertex %d of %d: %d delivered, error %v; want codec.ErrCorrupt", dst, numV, n, err)
		}

		ckpt, err := s.CaptureDurable()
		if err != nil {
			t.Fatal(err)
		}
		// The capture holds no inbox (its last byte is the count, 0): give it
		// one whose batch names the foreign vertex.
		ckpt = append(ckpt[:len(ckpt)-1], 1, 0)
		ckpt = binary.AppendUvarint(ckpt, uint64(len(batch)))
		ckpt = append(ckpt, batch...)
		if err := s.RestoreDurable(ckpt); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("RestoreDurable of an inbox for vertex %d of %d: error %v; want codec.ErrCorrupt", dst, numV, err)
		}
		s.Close()

		tcfg := cfg
		tcfg.Transport = batchTransport{batch}
		e, err := New(numV, idleProgram{}, tcfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("a transported exchange of a message for vertex %d of %d: error %v; want codec.ErrCorrupt", dst, numV, err)
		}
	}
	// The same three bytes for a vertex the run has decode and deliver.
	s, err := NewShard(numV, snapIdleProgram{}, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, err := s.Deliver([][]byte{oneMessageBatch(2)}); err != nil || n != 1 {
		t.Errorf("Deliver of a message for vertex 2: %d delivered, error %v", n, err)
	}
}

// inboxRecorder records, per vertex, the int64 payloads Run was handed.
type inboxRecorder struct {
	noSnapshot
	mu  sync.Mutex
	got map[int][]int64
}

func (*inboxRecorder) Init(*Context) {}

func (p *inboxRecorder) Run(ctx *Context, msgs []Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range msgs {
		p.got[ctx.Vertex()] = append(p.got[ctx.Vertex()], m.Word().Int())
	}
}

// dstTransport hands each receiver its own crafted batch, or an empty one.
type dstTransport map[int][]byte

func (dstTransport) Send(src, dst int, batch []byte) error { return nil }
func (dstTransport) Close() error                          { return nil }
func (tr dstTransport) Recv(dst int) ([][]byte, error) {
	if b, ok := tr[dst]; ok {
		return [][]byte{b}, nil
	}
	return [][]byte{{0}}, nil
}

// TestReceiveChecksOwnership: both drivers hand a worker its peers' bytes
// through Shard.receive, and a well-formed message for a vertex of the run
// that another worker owns is a corrupt batch to both — not a delivery to
// the local vertex that shares its slot number, and not an index past the
// local slots. Worker 1 of two owns vertices 1 and 3 of five.
func TestReceiveChecksOwnership(t *testing.T) {
	const numV, receiver = 5, 1
	cfg := Config{NumWorkers: 2, PayloadCodec: codec.Int64{}}
	drivers := map[string]func(*testing.T, *inboxRecorder, []byte) error{
		"Shard.Deliver": func(t *testing.T, p *inboxRecorder, batch []byte) error {
			s, err := NewShard(numV, p, cfg, receiver)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Deliver([][]byte{batch}); err != nil {
				return err
			}
			s.Barrier()
			return s.Compute()
		},
		"Engine.Run": func(t *testing.T, p *inboxRecorder, batch []byte) error {
			tcfg := cfg
			tcfg.Transport = dstTransport{receiver: batch}
			tcfg.MaxSupersteps = 2 // the second computes what the first received
			e, err := New(numV, p, tcfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Run()
			return err
		},
	}
	rows := []struct {
		name string
		dst  uint64
		want map[int][]int64 // nil: the batch is corrupt
	}{
		{"own vertex", 1, map[int][]int64{1: {9}}},
		{"foreign vertex", 0, nil},                      // slot 0, as vertex 1
		{"foreign vertex past the local slots", 4, nil}, // slot 2 of worker 0; worker 1 has two
	}
	for dname, drive := range drivers {
		for _, row := range rows {
			t.Run(dname+"/"+row.name, func(t *testing.T) {
				p := &inboxRecorder{got: map[int][]int64{}}
				err := drive(t, p, oneMessageBatch(row.dst))
				if row.want == nil {
					if !errors.Is(err, codec.ErrCorrupt) {
						t.Errorf("a message for vertex %d: error %v, want codec.ErrCorrupt", row.dst, err)
					}
					if len(p.got) != 0 {
						t.Errorf("a message for vertex %d was handed to %v", row.dst, p.got)
					}
					return
				}
				if err != nil || !reflect.DeepEqual(p.got, row.want) {
					t.Errorf("a message for vertex %d: error %v, vertices were handed %v, want %v", row.dst, err, p.got, row.want)
				}
			})
		}
	}
}

// FuzzDecodeBatch feeds the batch decoder — the first thing bytes from a peer
// reach — arbitrary input under each kind of codec: it must never panic, and
// whatever it accepts must re-encode to bytes that decode to the same
// messages and re-encode to themselves. (Not to the input: a varint has
// longer spellings the decoder reads and the encoder never writes.)
func FuzzDecodeBatch(f *testing.F) {
	f.Add(oneMessageBatch(2), uint8(0))
	f.Add(oneMessageBatch(1<<40), uint8(0))
	f.Add([]byte{2, 1, 2, 5, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{1, 3, 0, 2, 9, 7, 1}, uint8(2))
	f.Add([]byte{1, 0, 4, 3, 1, 2, 3}, uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(3))
	f.Add([]byte("\x01000\x00\x010"), uint8(3)) // an empty interval spelt [48, 48)
	codecs := []codec.Payload{codec.Int64{}, codec.Float64{}, codec.PairCodec{}, codec.Int64Slice{}}
	f.Fuzz(func(t *testing.T, data []byte, which uint8) {
		e, err := New(64, idleProgram{}, Config{NumWorkers: 2, PayloadCodec: codecs[int(which)%len(codecs)]})
		if err != nil {
			t.Fatal(err)
		}
		var first, second msgSlab
		if err := e.decodeBatchInto(&first, data); err != nil {
			return
		}
		for i, m := range first.msgs {
			if m.Dst < 0 || int(m.Dst) >= e.numV {
				t.Fatalf("decoded a message for vertex %d of %d", m.Dst, e.numV)
			}
			if m.When.IsEmpty() {
				first.msgs[i].When = ival.Empty // every empty interval is written as this one
			}
		}
		enc := e.encodeBatch(nil, &first)
		if err := e.decodeBatchInto(&second, enc); err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("re-encoded batch decodes to other messages:\n%+v\n%+v", first, second)
		}
		if again := e.encodeBatch(nil, &second); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point: %x then %x", enc, again)
		}
	})
}

// relayProgram moves payloads of every kind around a ring, a hop per
// superstep, and records what each vertex was handed: vertex v sends the
// values a later vertex must receive unchanged, so a payload that is lost,
// swapped with another slab's, or left behind by a move shows.
type relayProgram struct {
	noSnapshot
	n, steps int
	failAt   int // superstep whose first visit panics, once
	mu       sync.Mutex
	got      map[[2]int][]any // (superstep, vertex) -> payloads in inbox order
}

func relayPayloads(step, v int) []any {
	return []any{
		int64(1000*step + v), // inline
		[]int64{int64(step), int64(v)},
		"s" + string(rune('a'+v)), // a second spill in the same slab
		float64(v) + 0.5,
		nil,
	}
}

func (p *relayProgram) Init(*Context) {}

func (p *relayProgram) Run(ctx *Context, msgs []Message) {
	step, v := ctx.Superstep(), ctx.Vertex()
	p.mu.Lock()
	if step == p.failAt {
		p.failAt = 0
		p.mu.Unlock()
		panic("injected")
	}
	var got []any
	for _, m := range msgs {
		got = append(got, ctx.Payload(m))
	}
	p.got[[2]int{step, v}] = got
	p.mu.Unlock()
	if step < p.steps {
		for i, val := range relayPayloads(step, v) {
			ctx.Send(relayDst(v, i, p.n), ival.Point(ival.Time(i)), val)
		}
	}
}

// relayDst is where vertex v sends its i-th payload: one of the next three
// vertices on the ring. Three hops reach a vertex on the sender's own worker
// when three workers hold the ring by modulo, so a receiver on worker 1 hears
// from its own worker and from worker 0 — the two orders a receive routine
// could take them in.
func relayDst(v, i, n int) int { return (v + 1 + i%3) % n }

// wantRelay is what every (superstep, vertex) must have been handed: the
// payloads of the three ring predecessors, as a multiset.
func wantRelay(n, steps int) map[[2]int][]any {
	want := map[[2]int][]any{}
	for step := 1; step <= steps; step++ {
		for v := 0; v < n; v++ {
			want[[2]int{step, v}] = nil
		}
	}
	for step := 1; step < steps; step++ {
		for src := 0; src < n; src++ {
			for i, val := range relayPayloads(step, src) {
				k := [2]int{step + 1, relayDst(src, i, n)}
				want[k] = append(want[k], val)
			}
		}
	}
	return want
}

// describeAny spells each payload with its type, in order.
func describeAny(vs []any) []string {
	var out []string
	for _, v := range vs {
		out = append(out, fmt.Sprintf("%T:%v", v, v))
	}
	return out
}

// sortedAny orders payload lists for comparison as multisets.
func sortedAny(vs []any) []string {
	out := describeAny(vs)
	slices.Sort(out)
	return out
}

// anyCodec is a caller's own codec, with only the any form: one tag byte,
// then the value under the matching built-in codec.
type anyCodec struct{}

func (anyCodec) Append(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 0)
	case int64:
		return codec.Int64{}.Append(append(buf, 1), x)
	case float64:
		return codec.Float64{}.Append(append(buf, 2), x)
	case []int64:
		return codec.Int64Slice{}.Append(append(buf, 3), x)
	case string:
		buf = binary.AppendUvarint(append(buf, 4), uint64(len(x)))
		return append(buf, x...)
	}
	panic("anyCodec: unsupported value")
}

func (anyCodec) Decode(buf []byte) (any, int, error) {
	if len(buf) == 0 {
		return nil, 0, codec.ErrCorrupt
	}
	var v any
	var n int
	var err error
	switch buf[0] {
	case 0:
		return nil, 1, nil
	case 1:
		v, n, err = codec.Int64{}.Decode(buf[1:])
	case 2:
		v, n, err = codec.Float64{}.Decode(buf[1:])
	case 3:
		v, n, err = codec.Int64Slice{}.Decode(buf[1:])
	case 4:
		l, k := binary.Uvarint(buf[1:])
		if k <= 0 || uint64(len(buf)-1-k) < l {
			return nil, 0, codec.ErrCorrupt
		}
		return string(buf[1+k : 1+k+int(l)]), 1 + k + int(l), nil
	default:
		return nil, 0, codec.ErrCorrupt
	}
	return v, n + 1, err
}

// TestSpilledPayloadsSurviveEveryMove sends inline and spilled payloads side
// by side through each way a message travels in one process — outbox to inbox
// directly, across the TCP mesh, and through shards stepped as the cluster
// steps them, which commit before superstep 2, fail at 3 and restore their
// captures — and requires every vertex to be handed exactly what was sent to
// it, with the spill count the sends add up to, and all three ways to hand it
// over in one sequence: there is one delivery order.
func TestSpilledPayloadsSurviveEveryMove(t *testing.T) {
	const n, steps = 7, 4
	want := wantRelay(n, steps)
	run := func(t *testing.T, p *relayProgram, cfg Config) *obs.RunEnd {
		e, err := New(n, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name string
		run  func(*testing.T, *relayProgram) *obs.RunEnd
	}{
		{"in process", func(t *testing.T, p *relayProgram) *obs.RunEnd { return run(t, p, Config{NumWorkers: 3}) }},
		{"tcp", func(t *testing.T, p *relayProgram) *obs.RunEnd {
			return run(t, p, Config{NumWorkers: 3, PayloadCodec: anyCodec{}, Transport: tcp(t, 3)})
		}},
		{"rollback", func(t *testing.T, p *relayProgram) *obs.RunEnd {
			p.failAt = 3
			m := runStepped(t, n, p, Config{NumWorkers: 3, PayloadCodec: anyCodec{}}, 2, nil)
			if m.Recoveries != 1 {
				t.Errorf("%d recoveries, want 1", m.Recoveries)
			}
			return m
		}},
	}
	handed := make([]map[[2]int][]any, len(cases))
	for c, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &relayProgram{n: n, steps: steps, got: map[[2]int][]any{}}
			m := tc.run(t, p)
			for k, w := range want {
				if got := p.got[k]; !slices.Equal(sortedAny(got), sortedAny(w)) {
					t.Errorf("superstep %d vertex %d was handed %v, want %v", k[0], k[1], got, w)
				}
			}
			if wantSpilled := int64(n * (steps - 1) * 2); m.Spilled != wantSpilled {
				t.Errorf("%d messages spilled, want %d", m.Spilled, wantSpilled)
			}
			handed[c] = p.got
		})
	}
	for c := 1; c < len(cases); c++ {
		for k := range want {
			if got, ref := describeAny(handed[c][k]), describeAny(handed[0][k]); !slices.Equal(got, ref) {
				t.Errorf("superstep %d vertex %d: %s handed %v, %s %v", k[0], k[1], cases[c].name, got, cases[0].name, ref)
			}
		}
	}
}

// TestSpilledPayloadsSurviveDurableCheckpoint is the same traffic through
// stepped shards, with every shard captured mid-run and restored into fresh
// shards that finish the run.
func TestSpilledPayloadsSurviveDurableCheckpoint(t *testing.T) {
	const n, steps = 7, 4
	cfg := Config{NumWorkers: 2, PayloadCodec: anyCodec{}}
	step := func(ss []*Shard) {
		if _, err := stepShards(t, ss, 0); err != nil {
			t.Fatal(err)
		}
	}
	p := &relayProgram{n: n, steps: steps, got: map[[2]int][]any{}}
	first := newShards(t, n, p, cfg)
	step(first)
	step(first)
	fresh := newShards(t, n, p, cfg)
	for i, s := range first {
		ckpt, err := s.CaptureDurable()
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh[i].RestoreDurable(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	for s := 3; s <= steps; s++ {
		step(fresh)
	}
	for k, w := range wantRelay(n, steps) {
		if got := p.got[k]; !slices.Equal(sortedAny(got), sortedAny(w)) {
			t.Errorf("superstep %d vertex %d was handed %v, want %v", k[0], k[1], got, w)
		}
	}
}

// spillCombineProgram has every vertex send vertex 0 an int64 and a slice
// over one shared interval, and vertex 0 record what arrives.
type spillCombineProgram struct {
	mu   sync.Mutex
	ints []int64
	rest []any
}

func (p *spillCombineProgram) Init(*Context) {}

func (p *spillCombineProgram) Run(ctx *Context, msgs []Message) {
	if ctx.Superstep() == 1 {
		ctx.Send(0, ival.New(2, 5), int64(ctx.Vertex()+1))
		ctx.Send(0, ival.New(2, 5), []int64{int64(ctx.Vertex())})
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range msgs {
		if m.Kind == codec.KindInt {
			p.ints = append(p.ints, m.Word().Int())
		} else {
			p.rest = append(p.rest, ctx.Payload(m))
		}
	}
}

// TestCombinerLeavesSpilledPayloads: a combiner folds the words it can read,
// at the sender and on arrival; a spilled payload sharing the interval is
// neither handed to it nor folded into, and arrives as it was sent.
func TestCombinerLeavesSpilledPayloads(t *testing.T) {
	p := &spillCombineProgram{}
	sum := func(a, b codec.Word) codec.Word { return codec.IntWord(a.Int() + b.Int()) } // Int panics on a spilled word
	e, err := New(4, p, Config{NumWorkers: 2, Combiner: sum})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(p.ints) != 1 || p.ints[0] != 1+2+3+4 {
		t.Errorf("vertex 0 received ints %v, want the one sum 10", p.ints)
	}
	if want := []string{"[]int64:[0]", "[]int64:[1]", "[]int64:[2]", "[]int64:[3]"}; !slices.Equal(sortedAny(p.rest), want) {
		t.Errorf("vertex 0 received %v beside the sum, want the four slices", p.rest)
	}
}
