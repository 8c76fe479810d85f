package engine

import (
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

type idleProgram struct{}

func (idleProgram) Init(*Context) {}

func (idleProgram) Run(*Context, []Message) {}

// sendContext builds an engine with tracing disabled (or a tracer attached)
// and hands back a live Context on worker 0 with a pre-grown outbox, so the
// Send path itself is what gets measured.
func sendContext(t testing.TB, tracer obs.Tracer) *Context {
	t.Helper()
	e, err := New(4, idleProgram{}, Config{
		NumWorkers:   2,
		PayloadCodec: codec.Int64{},
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.workers[0].drawBuffers()
	t.Cleanup(e.releaseBuffers)
	ctx := &Context{eng: e, w: e.workers[0], vertex: 0}
	// Warm the outbox and the codec scratch buffer past any growth.
	for i := 0; i < 64; i++ {
		ctx.Send(1, ival.Universe, int64(5))
	}
	for _, ob := range ctx.w.outbox {
		ob.reset()
	}
	return ctx
}

// TestSendNoAllocsUntraced is the acceptance check that observability is
// free when off and that a message is words: with no tracer configured,
// sending a value made inside the measured call — an int64 past the runtime's
// static small-integer boxes, a float64, a pair; as an any each would be a
// fresh heap object — still counts messages, bytes and interval-encoding
// classes, and must not allocate.
func TestSendNoAllocsUntraced(t *testing.T) {
	intervals := []ival.Interval{
		ival.Universe,  // unbounded class
		ival.Point(3),  // unit class
		ival.New(2, 9), // general class
		ival.New(5, 5), // empty class
	}
	n := int64(1000)
	words := []struct {
		name  string
		codec codec.Payload
		fresh func() codec.Word
	}{
		{"int64", codec.Int64{}, func() codec.Word { n++; return codec.IntWord(n) }},
		{"float64", codec.Float64{}, func() codec.Word { n++; return codec.FloatWord(float64(n) * 0.137) }},
		{"pair", codec.PairCodec{}, func() codec.Word { n++; return codec.PairWord(n, -n) }},
	}
	for _, wd := range words {
		ctx := sendContext(t, nil)
		ctx.eng.cfg.PayloadCodec = wd.codec
		ctx.eng.inline = codec.InlineKind(wd.codec)
		for _, iv := range intervals {
			allocs := testing.AllocsPerRun(200, func() {
				ctx.SendWord(1, iv, wd.fresh(), nil)
				ctx.w.outbox[1].reset()
			})
			if allocs != 0 {
				t.Errorf("SendWord(%v, a fresh %s) with tracing off allocates %.1f per call, want 0", iv, wd.name, allocs)
			}
		}
	}
}

// minInt64Combiner mirrors SSSP's combiner; sumCombiner PageRank's, whose
// every result is a value that did not exist before.
func minInt64Combiner(a, b codec.Word) codec.Word {
	if a.Int() < b.Int() {
		return a
	}
	return b
}

func sumCombiner(a, b codec.Word) codec.Word { return codec.FloatWord(a.Float() + b.Float()) }

// steadyExchangeStep builds an engine, installs a fixed traffic template, and
// returns one steady-state exchange superstep: refill every outbox from the
// template and fold them as a compute phase ends, run every worker's
// in-memory exchange, then empty every inbox range as the compute phase
// would. The step is pre-run until all grow-only buffers and the fold index
// have reached their working size, so what remains is the pure data path.
func steadyExchangeStep(t testing.TB, cfg Config, traffic [][][]Message) func() {
	t.Helper()
	e, err := New(trafficVertices(traffic), idleProgram{}, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, w := range e.workers {
		w.drawBuffers()
	}
	t.Cleanup(e.releaseBuffers)
	step := func() {
		for _, w := range e.workers {
			for dst := range e.workers {
				w.outbox[dst].msgs = append(w.outbox[dst].msgs[:0], traffic[w.id][dst]...)
			}
			w.foldOutboxes()
		}
		for _, w := range e.workers {
			w.exchange()
		}
		for _, w := range e.workers {
			clear(w.at)
			clear(w.end)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	return step
}

// trafficVertices is the vertex count a traffic template addresses.
func trafficVertices(traffic [][][]Message) int {
	numV := 0
	for _, perDst := range traffic {
		for _, batch := range perDst {
			for _, m := range batch {
				numV = max(numV, int(m.Dst)+1)
			}
		}
	}
	return numV
}

// ssspTraffic is SSSP-on-transit-shaped exchange load: unbounded [t, ∞)
// message intervals, int64 costs, several messages per destination so the
// receiver-side combiner path runs.
func ssspTraffic(workers, vertices int) [][][]Message {
	tr := make([][][]Message, workers)
	for src := range tr {
		tr[src] = make([][]Message, workers)
		for v := 0; v < vertices; v++ {
			dst := v % workers
			for k := 0; k < 3; k++ {
				tr[src][dst] = append(tr[src][dst],
					newMessage(int32(v), ival.From(ival.Time(5+k)), codec.IntWord(int64(300+v+k))))
			}
		}
	}
	return tr
}

// prTraffic is PageRank-on-transit-shaped exchange load: general (bounded)
// message intervals, float64 rank mass; with the sum combiner, the three
// sources' contributions per interval fold into one.
func prTraffic(workers, vertices int) [][][]Message {
	tr := make([][][]Message, workers)
	for src := range tr {
		tr[src] = make([][]Message, workers)
		for v := 0; v < vertices; v++ {
			dst := v % workers
			for k := 0; k < 3; k++ {
				tr[src][dst] = append(tr[src][dst],
					newMessage(int32(v), ival.New(ival.Time(2+k), ival.Time(9+k)), codec.FloatWord(float64(v+1)*0.137)))
			}
		}
	}
	return tr
}

// exchangeLoads are the traffic the zero-allocation gates deliver: SSSP-shaped
// traffic, and PageRank-shaped traffic with and without the sum combiner,
// whose results were one heap object each as values.
var exchangeLoads = []struct {
	name    string
	cfg     Config
	traffic [][][]Message
}{
	{
		name: "sssp-shaped",
		cfg: Config{
			NumWorkers:   2,
			PayloadCodec: codec.Int64{},
			Combiner:     minInt64Combiner,
		},
		traffic: ssspTraffic(2, 8),
	},
	{
		name: "pr-shaped",
		cfg: Config{
			NumWorkers:   2,
			PayloadCodec: codec.Float64{},
		},
		traffic: prTraffic(2, 8),
	},
	{
		name: "pr-shaped, sum combiner",
		cfg: Config{
			NumWorkers:   2,
			PayloadCodec: codec.Float64{},
			Combiner:     sumCombiner,
		},
		traffic: prTraffic(2, 8),
	},
}

// TestExchangeNoAllocsSteadyState is the exchange-phase half of the
// zero-allocation gate: a full in-memory exchange superstep — outbox refill,
// the sender's fold, delivery into the worker's inbox (combined and
// uncombined), and emptying the ranges — must not allocate once warmed.
func TestExchangeNoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: sync.Pool drops items at random under the race detector")
	}
	for _, tc := range exchangeLoads {
		t.Run(tc.name, func(t *testing.T) {
			step := steadyExchangeStep(t, tc.cfg, tc.traffic)
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Errorf("steady-state exchange superstep allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestDeliverWireNoAllocsSteadyState is the wire half: Shard.Deliver of
// pre-encoded peer batches — decoding straight into the stage behind the
// shard's own outbox, then placing both into its inbox — must not allocate
// once warmed.
func TestDeliverWireNoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race: sync.Pool drops items at random under the race detector")
	}
	for _, tc := range exchangeLoads {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewShard(trafficVertices(tc.traffic), snapIdleProgram{}, tc.cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			w := s
			// What each source sends shard 0, folded as its compute phase
			// would leave it; the peers' encoded.
			sent := make([]*msgSlab, len(tc.traffic))
			var batches [][]byte
			for src := range tc.traffic {
				sent[src] = &msgSlab{msgs: append([]Message(nil), tc.traffic[src][0]...)}
				if c := tc.cfg.Combiner; c != nil {
					new(foldIndex).fold(sent[src], c)
				}
				if src != 0 {
					batches = append(batches, s.eng.encodeBatch(nil, sent[src]))
				}
			}
			step := func() {
				w.outbox[0].msgs = append(w.outbox[0].msgs[:0], sent[0].msgs...)
				if _, err := s.Deliver(batches); err != nil {
					t.Fatal(err)
				}
				clear(w.at)
				clear(w.end)
			}
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Errorf("steady-state Deliver allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// BenchmarkExchangeSteadyState reports the full in-memory exchange superstep
// under SSSP-shaped traffic.
func BenchmarkExchangeSteadyState(b *testing.B) {
	step := steadyExchangeStep(b, Config{
		NumWorkers:   2,
		PayloadCodec: codec.Int64{},
		Combiner:     minInt64Combiner,
	}, ssspTraffic(2, 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// rankTraffic is cluster_pr's exchange load (PageRank over SkewedLike(0.2),
// seed 42, two workers): unit-interval float64 rank mass, perSlab messages to
// each vertex per superstep spread over `points` time-points, which is what
// the sum combiner folds them into.
func rankTraffic(workers, vertices, perSlab, points int) [][][]Message {
	tr := make([][][]Message, workers)
	for src := range tr {
		tr[src] = make([][]Message, workers)
	}
	for v := 0; v < vertices; v++ {
		for k := 0; k < perSlab; k++ {
			src := k % workers
			tr[src][v%workers] = append(tr[src][v%workers],
				newMessage(int32(v), ival.Point(ival.Time(k*7%points)), codec.FloatWord(float64(k+1)*0.137)))
		}
	}
	return tr
}

// BenchmarkExchangeRank is the exchange superstep of the measured cluster_pr
// traffic under PageRank's sum combiner, at the mean inbox (93 messages
// folding into 23 time-points) and at the hub's (253 into 42). Every combine
// makes a float64 that did not exist before; once warmed, none of it may
// allocate.
func BenchmarkExchangeRank(b *testing.B) {
	for _, sz := range []struct {
		name            string
		perSlab, points int
	}{{"mean", 93, 23}, {"hub", 253, 42}} {
		b.Run(sz.name, func(b *testing.B) {
			const vertices = 64
			step := steadyExchangeStep(b, Config{
				NumWorkers:   2,
				PayloadCodec: codec.Float64{},
				Combiner:     sumCombiner,
			}, rankTraffic(2, vertices, sz.perSlab, sz.points))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vertices*sz.perSlab), "ns/msg")
			if raceEnabled {
				return // sync.Pool drops items at random under the race detector
			}
			if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
				b.Fatalf("%v allocs per warmed exchange superstep, want 0", allocs)
			}
		})
	}
}

// BenchmarkContextSend reports the Send hot path with tracing off — the
// configuration every production run uses.
func BenchmarkContextSend(b *testing.B) {
	ctx := sendContext(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.SendWord(1, ival.Universe, codec.IntWord(int64(i)), nil)
		if len(ctx.w.outbox[1].msgs) >= 1024 {
			ctx.w.outbox[1].reset()
		}
	}
}
