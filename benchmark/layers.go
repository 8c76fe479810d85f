package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// The layer probes time calls into each layer's exported functions on the
// workload's own inputs. They run once per traced run, after the script, and
// report medians of a few repetitions: unit costs (time / an exact count)
// are the durable figures, the counts themselves repeat exactly.

// job is one BSP computation a workload runs: the probes re-run it directly
// (core.Run) and as shards stepped by the benchmark.
type job struct {
	g           *tgraph.Graph
	algo        string
	params      algorithms.Params
	partitioner func(vertex, numWorkers int) int // nil: the engine's default
}

func (j *job) program() (core.Program, core.Options, error) {
	prog, opts, err := algorithms.New(j.g, j.algo, j.params)
	opts.NumWorkers = bspWorkers
	opts.Partitioner = j.partitioner
	return prog, opts, err
}

// run executes the job in one process, the way core.Run's callers do.
func (j *job) run() (*core.Result, error) {
	prog, opts, err := j.program()
	if err != nil {
		return nil, err
	}
	return core.Run(j.g, prog, opts)
}

// runTransported executes the job in one process with every cross-worker
// batch shipped through a loopback TCPTransport: the delivery order shards
// and cluster planes must reproduce. Float folds see the difference between
// this order and the in-process handoff's, so it — not run — is the
// reference for anything that executes as shards.
func (j *job) runTransported() (*core.Result, error) {
	prog, opts, err := j.program()
	if err != nil {
		return nil, err
	}
	tp, err := engine.NewTCPTransport(bspWorkers)
	if err != nil {
		return nil, err
	}
	defer tp.Close()
	opts.Transport = tp
	return core.Run(j.g, prog, opts)
}

// probeRounds is how many repetitions back each probe's median.
const probeRounds = 5

// timeMS runs fn rounds times and returns the median duration in ms.
func timeMS(rounds int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// graphLayers reports tgraph (open, size, footprint, slice) and warp (the
// operator over every vertex's in-edge lifespans) for the workload's graph.
func graphLayers(m *metricSet, g *tgraph.Graph, gsnPath string) error {
	st, err := os.Stat(gsnPath)
	if err != nil {
		return err
	}
	m.set("tgraph.gsn_bytes", float64(st.Size()))
	m.set("tgraph.mem_footprint_mb", float64(g.MemoryFootprint())/(1<<20))
	open, err := timeMS(probeRounds, func() error {
		mp, err := tgraph.OpenMapped(gsnPath)
		if err != nil {
			return err
		}
		return mp.Close()
	})
	if err != nil {
		return err
	}
	m.set("tgraph.open_mapped_ms", open)
	if half := g.Horizon() / 2; half > 0 {
		slice, err := timeMS(probeRounds, func() error {
			_, err := tgraph.Slice(g, ival.New(0, half))
			return err
		})
		if err != nil {
			return err
		}
		m.set("tgraph.slice_ms", slice)
	}
	warpLayers(m, g)
	return nil
}

// warpLayers aligns, for every vertex, the lifespans of its in-edges (the
// intervals messages arrive over) against its own lifespan — once with the
// warp operator, once on the suppressed point path.
func warpLayers(m *metricSet, g *tgraph.Graph) {
	var sc warp.Scratch
	var tuples []warp.Tuple
	var inner []warp.IntervalValue
	var msgs, nTuples int64
	sweep := func(align func(dst []warp.Tuple, outer, inner []warp.IntervalValue) []warp.Tuple) time.Duration {
		msgs, nTuples = 0, 0
		t0 := time.Now()
		for v := 0; v < g.NumVertices(); v++ {
			in := g.InEdges(v)
			if len(in) == 0 {
				continue
			}
			inner = inner[:0]
			for _, e := range in {
				inner = append(inner, warp.IntervalValue{Interval: g.Edge(int(e)).Lifespan, Value: int64(1)})
			}
			outer := [1]warp.IntervalValue{{Interval: g.VertexAt(v).Lifespan, Value: int64(0)}}
			tuples = align(tuples[:0], outer[:], inner)
			msgs += int64(len(inner))
			nTuples += int64(len(tuples))
		}
		return time.Since(t0)
	}
	var warpNS, pointNS []float64
	var warpTuples int64
	for i := 0; i < probeRounds; i++ {
		d := sweep(sc.Warp)
		warpTuples = nTuples
		if msgs == 0 {
			return
		}
		warpNS = append(warpNS, float64(d.Nanoseconds())/float64(msgs))
		d = sweep(sc.PointGroups)
		pointNS = append(pointNS, float64(d.Nanoseconds())/float64(msgs))
	}
	m.set("warp.ns_per_msg", median(warpNS))
	m.set("warp.tuples_per_msg", float64(warpTuples)/float64(msgs))
	m.set("warp.point_groups_ns_per_msg", median(pointNS))
}

// algorithmLayers reports the p50 of direct core.Run per algorithm the jobs
// use, over all of them as engine.inproc_run_ms — the in-process base the
// clustered job's overhead ratio is stated against — and the cost of
// rendering a result as lines.
func algorithmLayers(m *metricSet, jobs []job) error {
	perAlgo := map[string][]float64{}
	var all, format []float64
	for i := range jobs {
		j := &jobs[i]
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			res, err := j.run()
			if err != nil {
				return err
			}
			d := ms(time.Since(t0))
			perAlgo[j.algo] = append(perAlgo[j.algo], d)
			all = append(all, d)
			t0 = time.Now()
			serve.FormatResult(res, 0)
			format = append(format, ms(time.Since(t0)))
		}
	}
	m.set("serve.format_result_ms", median(format))
	for algo, xs := range perAlgo {
		m.set("algorithms."+algo+"_run_ms", median(xs))
	}
	m.set("engine.inproc_run_ms", median(all))
	return nil
}

// recordedBatch is one cross-shard batch a stepped run produced, kept (as a
// copy) for the codec and wire probes, with the codec its payloads use.
type recordedBatch struct {
	data []byte
	pc   codec.Payload
}

// stepTotals is what the stepped runs add up to.
type stepTotals struct {
	computeCalls, delivered int64
	steps, gens, ckptBytes  int64
	batches                 []recordedBatch
	xBytes                  int64 // sum of batch lengths

	// Filled by codecProbe from the batches.
	msgs, unitMsgs, openMsgs    int64
	codecBytes                  int64 // interval + payload bytes, without the batch framing
	encodeNS, decodeNS, frameNS int64
}

// steppedRun executes one job as bspWorkers core.Shards stepped by the
// benchmark on one goroutine — the loop a cluster worker runs, minus the
// network — with a span per superstep x shard x phase, a durable capture +
// CheckpointStore.Save every second superstep (the cluster workload's
// cadence), and returns the assembled result.
func steppedRun(j *job, rec *recorder, op int, store *engine.CheckpointStore, tot *stepTotals) (*core.Result, error) {
	root := rec.begin(op, "stepped_job", -1)
	defer rec.end(root)
	sp := rec.begin(op, "new_shards", root)
	shards := make([]*core.Shard, bspWorkers)
	var opts core.Options
	for s := range shards {
		prog, o, err := j.program()
		if err != nil {
			return nil, err
		}
		opts = o
		if shards[s], err = core.NewShard(j.g, prog, o, s); err != nil {
			return nil, err
		}
	}
	rec.end(sp)
	sp = rec.begin(op, "init", root)
	for _, sh := range shards {
		if err := sh.Init(); err != nil {
			return nil, err
		}
	}
	rec.end(sp)

	outs := make([][][]byte, bspWorkers)
	for step := 1; ; step++ {
		ss := rec.begin(op, "superstep", root)
		phase := func(name string, fn func() error) error {
			id := rec.begin(op, name, ss)
			err := fn()
			rec.end(id)
			return err
		}
		for _, sh := range shards {
			if err := phase("compute", sh.Compute); err != nil {
				return nil, err
			}
		}
		for s, sh := range shards {
			if err := phase("outbound", func() (err error) { outs[s], err = sh.Outbound(); return }); err != nil {
				return nil, err
			}
		}
		var delivered int64
		var active int
		for s, sh := range shards {
			inbound := make([][]byte, 0, bspWorkers-1)
			for src := range shards {
				if src != s {
					inbound = append(inbound, outs[src][s])
				}
			}
			if err := phase("deliver", func() error {
				n, err := sh.Deliver(inbound)
				delivered += n
				return err
			}); err != nil {
				return nil, err
			}
		}
		for _, sh := range shards {
			var rep engine.StepReport
			_ = phase("barrier", func() error { rep = sh.Barrier(); return nil })
			active += rep.Active
			tot.computeCalls += rep.ComputeCalls
		}
		tot.delivered += delivered
		tot.steps++
		if step%2 == 0 {
			for _, sh := range shards {
				var data []byte
				if err := phase("capture", func() (err error) { data, err = sh.CaptureDurable(); return }); err != nil {
					return nil, err
				}
				if err := phase("ckpt_save", func() error {
					_, err := store.Save(step/2, sh.Superstep(), data)
					return err
				}); err != nil {
					return nil, err
				}
				tot.ckptBytes += int64(len(data))
				tot.gens++
			}
		}
		rec.end(ss)
		// Keeping the batches is the probe's work, so it happens outside the
		// superstep's span; copies, because the engine may reuse the buffers.
		for src := range outs {
			for dst, batch := range outs[src] {
				if dst != src {
					tot.batches = append(tot.batches, recordedBatch{bytes.Clone(batch), opts.PayloadCodec})
					tot.xBytes += int64(len(batch))
				}
			}
		}
		halted := delivered == 0 && active == 0 && !opts.ActivateAll
		bounded := opts.MaxSupersteps > 0 && step+1 > opts.MaxSupersteps
		if halted || bounded {
			break
		}
	}
	sp = rec.begin(op, "assemble", root)
	defer rec.end(sp)
	blobs := make([][]byte, bspWorkers)
	for s, sh := range shards {
		var err error
		if blobs[s], err = sh.EncodeOwnedStates(); err != nil {
			return nil, err
		}
	}
	return core.AssembleResult(j.g, opts.PayloadCodec, blobs, nil)
}

// steppedLayers runs every job stepped, checks each against the transported
// reference, reports the engine and codec layers from what the stepped runs
// recorded, and returns their spans. dir holds the checkpoints.
func steppedLayers(m *metricSet, jobs []job, dir string) ([]span, error) {
	store, err := engine.OpenCheckpointStore(dir)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(time.Now())
	tot := &stepTotals{}
	for i := range jobs {
		j := &jobs[i]
		got, err := steppedRun(j, rec, i, store, tot)
		if err != nil {
			return nil, fmt.Errorf("stepped %s: %w", j.algo, err)
		}
		want, err := j.runTransported()
		if err != nil {
			return nil, err
		}
		if err := sameLines("stepped "+j.algo, serve.FormatResult(got, 0), serve.FormatResult(want, 0)); err != nil {
			return nil, err
		}
	}
	spans := selfTimes(rec.spans)
	if err := tot.codecProbe(); err != nil {
		return nil, err
	}
	tcpNS, err := tot.wireProbe()
	if err != nil {
		return nil, err
	}

	span := spans.get
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	jobNS, loopNS := float64(span("stepped_job").WallNS), float64(span("superstep").WallNS)
	m.set("core.compute_ns_per_call", div(float64(span("compute").WallNS), float64(tot.computeCalls)))
	m.set("engine.outbound_ns_per_msg", div(float64(span("outbound").WallNS), float64(tot.msgs)))
	m.set("engine.deliver_ns_per_msg", div(float64(span("deliver").WallNS), float64(tot.delivered)))
	m.set("engine.barrier_ns_per_step", div(float64(span("barrier").WallNS), float64(tot.steps)))
	m.set("engine.xshard_bytes_per_msg", div(float64(tot.xBytes), float64(tot.msgs)))
	m.set("engine.capture_ns_per_byte", div(float64(span("capture").WallNS), float64(tot.ckptBytes)))
	m.set("engine.ckpt_bytes_per_gen", div(float64(tot.ckptBytes), float64(tot.gens)))
	m.set("engine.ckpt_save_ms", div(float64(span("ckpt_save").WallNS)/1e6, float64(tot.gens)))
	m.set("engine.tcp_ns_per_byte", tcpNS)
	m.set("engine.new_shards_ms", div(float64(span("new_shards").WallNS)/1e6, float64(len(jobs))))
	// Shares of the superstep loop, the part a single-process run also pays;
	// building the shards is reported on its own above.
	m.set("engine.compute_share", div(float64(span("compute").WallNS), loopNS))
	m.set("engine.deliver_share", div(float64(span("deliver").WallNS), loopNS))
	// Untracked: the stepped job's own self time plus each superstep's —
	// everything between the phase spans.
	m.set("engine.step_untracked_share", div(float64(span("stepped_job").SelfNS+span("superstep").SelfNS), jobNS))
	m.set("codec.encode_ns_per_msg", div(float64(tot.encodeNS), float64(tot.msgs)))
	m.set("codec.decode_ns_per_msg", div(float64(tot.decodeNS), float64(tot.msgs)))
	m.set("codec.bytes_per_msg", div(float64(tot.codecBytes), float64(tot.msgs)))
	m.set("codec.unit_share", div(float64(tot.unitMsgs), float64(tot.msgs)))
	m.set("codec.open_share", div(float64(tot.openMsgs), float64(tot.msgs)))
	m.set("codec.frame_ns_per_byte", div(float64(tot.frameNS), float64(tot.xBytes)))
	return rec.spans, nil
}

// wireMsg is one decoded cross-shard message.
type wireMsg struct {
	dst  uint64
	when ival.Interval
	val  any
}

// codecProbe decodes every recorded batch with the codec's exported
// functions (the engine's batch layout: a uvarint count, then per message a
// uvarint destination, the var-byte interval and the payload), re-encodes
// the messages, and frames the batches — timing each direction.
func (t *stepTotals) codecProbe() error {
	var msgs []wireMsg
	var out []byte
	var sink bytes.Buffer
	for _, rb := range t.batches {
		batch, pc := rb.data, rb.pc
		msgs = msgs[:0]
		t0 := time.Now()
		n, k := binary.Uvarint(batch)
		if k <= 0 {
			return fmt.Errorf("codec probe: corrupt batch header")
		}
		buf := batch[k:]
		for i := uint64(0); i < n; i++ {
			dst, k := binary.Uvarint(buf)
			if k <= 0 {
				return fmt.Errorf("codec probe: corrupt destination")
			}
			buf = buf[k:]
			when, k, err := codec.Interval(buf)
			if err != nil {
				return err
			}
			buf = buf[k:]
			val, k, err := pc.Decode(buf)
			if err != nil {
				return err
			}
			buf = buf[k:]
			msgs = append(msgs, wireMsg{dst, when, val})
		}
		t.decodeNS += time.Since(t0).Nanoseconds()
		t.msgs += int64(n)
		for _, msg := range msgs {
			switch codec.ClassOf(msg.when) {
			case codec.ClassUnit:
				t.unitMsgs++
			case codec.ClassUnbounded:
				t.openMsgs++
			}
		}

		t0 = time.Now()
		out = binary.AppendUvarint(out[:0], n)
		for _, msg := range msgs {
			out = binary.AppendUvarint(out, msg.dst)
			body := len(out)
			out = codec.AppendInterval(out, msg.when)
			out = pc.Append(out, msg.val)
			t.codecBytes += int64(len(out) - body)
		}
		t.encodeNS += time.Since(t0).Nanoseconds()
		if !bytes.Equal(out, batch) {
			return fmt.Errorf("codec probe: re-encoded batch differs from the engine's")
		}

		t0 = time.Now()
		sink.Reset()
		if err := codec.WriteFrame(&sink, 1, batch); err != nil {
			return err
		}
		if _, _, err := codec.ReadFrame(&sink); err != nil {
			return err
		}
		t.frameNS += time.Since(t0).Nanoseconds()
	}
	return nil
}

// wireProbe replays the recorded batches through engine.TCPTransport's
// loopback mesh, shard 0 to shard 1, and returns ns per payload byte.
func (t *stepTotals) wireProbe() (float64, error) {
	if t.xBytes == 0 {
		return 0, nil
	}
	tp, err := engine.NewTCPTransport(bspWorkers)
	if err != nil {
		return 0, err
	}
	defer tp.Close()
	t0 := time.Now()
	for _, rb := range t.batches {
		// Send blocks once the socket buffer fills, so the receiver must be
		// draining concurrently.
		done := make(chan error, 1)
		go func() {
			_, err := tp.Recv(1)
			done <- err
		}()
		if err := tp.Send(0, 1, rb.data); err != nil {
			return 0, err
		}
		if err := <-done; err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(t.xBytes), nil
}
