package engine

import (
	"bytes"
	"reflect"
	"testing"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// snapIdleProgram is the least a Shard accepts: no work, an empty snapshot.
type snapIdleProgram struct {
	idleProgram
	noSnapshot
}

// noSnapshot is the Snapshotter of a program with no state of its own.
type noSnapshot struct{}

func (noSnapshot) AppendSnapshot(b []byte) ([]byte, error) { return b, nil }
func (noSnapshot) RestoreSnapshot([]byte) error            { return nil }

// outboundFixture is a 3-worker shard 0 over 300 vertices, under combiner c
// (nil for none), and a send script covering every interval encoding class,
// one- and two-byte vertex indices, and payloads of every varint width. The
// script sends every (vertex, interval) twice, with payloads of different
// widths, and returns the messages it sent.
func outboundFixture(t testing.TB, c Combiner) (*Shard, func() []Message) {
	t.Helper()
	s, err := NewShard(300, snapIdleProgram{}, Config{NumWorkers: 3, PayloadCodec: codec.Int64{}, Combiner: c}, 0)
	if err != nil {
		t.Fatalf("NewShard: %v", err)
	}
	ctx := &Context{eng: s.eng, w: s}
	intervals := []ival.Interval{ival.Universe, ival.Point(3), ival.New(2, 900), ival.Empty, ival.From(70000)}
	vals := make([]any, 64) // boxed once; Send takes any
	for i := range vals {
		vals[i] = int64(1)<<uint(i) - 7
	}
	var sent []Message
	send := func() []Message {
		sent = sent[:0]
		for pass := 0; pass < 2; pass++ {
			for dst := 0; dst < 300; dst++ {
				when, v := intervals[dst%len(intervals)], vals[(dst+17*pass)%len(vals)]
				ctx.Send(dst, when, v)
				sent = append(sent, newMessage(int32(dst), when, codec.IntWord(v.(int64))))
			}
		}
		return sent
	}
	return s, send
}

// TestOutboundBatchesExactlySized pins Outbound's batches: each was allocated
// once at its final size — nothing grown, nothing spare — and decodes to what
// was sent to its shard, in order: with no combiner every message, and under
// an int-min combiner, whose folds change payloads' varint widths, the
// folded messages in the order of their first. A restore discards what the
// outboxes held.
func TestOutboundBatchesExactlySized(t *testing.T) {
	for _, c := range []struct {
		name string
		c    Combiner
	}{{"no combiner", nil}, {"min combiner", minInt64Combiner}} {
		t.Run(c.name, func(t *testing.T) {
			s, send := outboundFixture(t, c.c)
			for round := 0; round < 3; round++ {
				if round == 2 {
					ckpt, err := s.CaptureDurable()
					if err != nil {
						t.Fatalf("capture: %v", err)
					}
					send()
					if err := s.RestoreDurable(ckpt); err != nil {
						t.Fatalf("restore: %v", err)
					}
				}
				want := make([][]Message, 3)
				for _, m := range send() {
					d := s.eng.part[m.Dst]
					want[d] = append(want[d], m)
				}
				s.foldOutboxes() // as the compute phase ends
				out, err := s.Outbound()
				if err != nil {
					t.Fatalf("Outbound: %v", err)
				}
				if out[0] != nil {
					t.Fatalf("round %d: own index carries a batch", round)
				}
				if c.c != nil {
					for d := range want {
						if want[d] = arrivalFold(want[d], c.c); len(want[d]) != 100 {
							t.Fatalf("round %d: shard %d's 200 messages fold to %d, want 100", round, d, len(want[d]))
						}
					}
				}
				for d := 1; d < 3; d++ {
					if len(out[d]) != cap(out[d]) {
						t.Errorf("round %d: batch for shard %d has len %d, cap %d; want allocated at its exact size",
							round, d, len(out[d]), cap(out[d]))
					}
					var got msgSlab
					if err := s.eng.decodeBatchInto(&got, out[d]); err != nil {
						t.Fatalf("round %d: decode batch %d: %v", round, d, err)
					}
					if !reflect.DeepEqual(got.msgs, want[d]) {
						t.Errorf("round %d: batch for shard %d does not decode to what was sent", round, d)
					}
				}
				if !reflect.DeepEqual(s.outbox[0].msgs, want[0]) {
					t.Errorf("round %d: Outbound changed the self-addressed outbox", round)
				}
				s.outbox[0].reset()
			}
		})
	}
}

// TestOutboundAllocsPerBatch gates the encode path: one allocation for the
// slice of batches and one per destination batch, whatever their size.
func TestOutboundAllocsPerBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	s, send := outboundFixture(t, nil)
	step := func() {
		send()
		if _, err := s.Outbound(); err != nil {
			t.Fatal(err)
		}
		s.outbox[0].reset()
	}
	step() // grow the outboxes and the sizing scratch
	const batches = 2
	if allocs := testing.AllocsPerRun(50, step); allocs > 1+batches {
		t.Errorf("send + Outbound allocates %.1f per superstep, want at most %d (the batch list and one per batch)",
			allocs, 1+batches)
	}
}

// snapSelfSendProgram keeps every vertex of a Shard active: each sends itself
// one message per superstep.
type snapSelfSendProgram struct {
	selfSendProgram
	noSnapshot
}

// TestShardBarrierPublishesNoImbalance: in a shard's engine only the shard's
// own worker ever computes, so max/mean compute time over all of the engine's
// workers would read NumShards × 1000 whatever the cluster's balance is.
// Barrier and the record its driver publishes (as a cluster worker does) set
// the frontier size and leave the skew gauge alone; the cluster's skew is the
// coordinator's to report.
func TestShardBarrierPublishesNoImbalance(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewShard(10, snapSelfSendProgram{selfSendProgram: selfSendProgram{val: int64(7)}},
		Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, Registry: reg}, 0)
	if err != nil {
		t.Fatalf("NewShard: %v", err)
	}
	defer s.Close()
	if err := s.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	for step := 0; step < 2; step++ {
		if err := s.Compute(); err != nil {
			t.Fatalf("Compute: %v", err)
		}
		if s.step.ComputeNS <= 0 {
			t.Fatal("the compute phase was not timed")
		}
		if _, err := s.Outbound(); err != nil {
			t.Fatalf("Outbound: %v", err)
		}
		if _, err := s.Deliver([][]byte{{0}}); err != nil { // the peer's batch: no messages
			t.Fatalf("Deliver: %v", err)
		}
		rep := s.Barrier()
		s.eng.series.Publish(rep.Record())
		if got := reg.Gauge(obs.GClusterSkewMilli).Load(); got != 0 {
			t.Errorf("superstep %d: a shard published compute skew %d, want none", rep.Superstep, got)
		}
		if got, want := reg.Gauge(obs.GActiveVertices).Load(), int64(len(s.local)); got != want || rep.Active != len(s.local) {
			t.Errorf("superstep %d: active vertices gauge %d, report %d, want %d", rep.Superstep, got, rep.Active, want)
		}
	}
}

// newShards builds every shard of an n-vertex engine over p, each Init()ed
// and closed with the test.
func newShards(t testing.TB, n int, p Program, cfg Config) []*Shard {
	t.Helper()
	ss := make([]*Shard, cfg.NumWorkers)
	for i := range ss {
		s, err := NewShard(n, p, cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}
	return ss
}

// stepShards runs one superstep of phase over shards stepped from outside,
// in the cluster's order: every shard's Compute and Outbound, then each
// shard's Deliver of its peers' batches, in ascending source order, and its
// Barrier, whose record, with the shard's clocks, it publishes as a cluster
// worker does. A failed Compute ends the superstep there, with its error.
func stepShards(t testing.TB, ss []*Shard, phase int) ([]StepReport, error) {
	t.Helper()
	outs := make([][][]byte, len(ss))
	for i, s := range ss {
		s.SetPhase(phase)
		if err := s.Compute(); err != nil {
			return nil, err
		}
		var err error
		if outs[i], err = s.Outbound(); err != nil {
			t.Fatal(err)
		}
	}
	reps := make([]StepReport, len(ss))
	for d, s := range ss {
		var in [][]byte
		for src := range ss {
			if src != d {
				in = append(in, outs[src][d])
			}
		}
		if _, err := s.Deliver(in); err != nil {
			t.Fatal(err)
		}
		reps[d] = s.Barrier()
		rec := reps[d].Record()
		rec.Add(s.step.Clocks())
		s.eng.series.Publish(rec)
	}
	return reps, nil
}

// runStepped runs p over every shard of an n-vertex engine as the cluster
// coordinator does, closing each superstep through one Barrier. At the
// barrier before superstep commitAt it captures every shard and commits. A
// failed superstep rewinds the barrier and restores every shard to its
// capture, which must capture back to the same bytes and hold the frontier
// the barrier committed, and the run steps on from there. at, when set, sees
// the shards at every barrier. It returns the barrier's record.
func runStepped(t *testing.T, n int, p Program, cfg Config, commitAt int, at func(step int, ss []*Shard)) *obs.RunEnd {
	t.Helper()
	b, err := NewBarrier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := newShards(t, n, p, cfg)
	var ckpts [][]byte
	for step := 1; b.Open(step); step++ {
		if step == commitAt && ckpts == nil {
			for _, s := range ss {
				c, err := s.CaptureDurable()
				if err != nil {
					t.Fatal(err)
				}
				ckpts = append(ckpts, c)
			}
			b.Commit(step)
		}
		if at != nil {
			at(step, ss)
		}
		reps, err := stepShards(t, ss, b.Phase())
		if err != nil {
			if ckpts == nil {
				t.Fatalf("superstep %d failed before the commit: %v", step, err)
			}
			if _, err := b.Rewind(step); err != nil {
				t.Fatal(err)
			}
			active := 0
			for i, s := range ss {
				if err := s.RestoreDurable(ckpts[i]); err != nil {
					t.Fatal(err)
				}
				if again, err := s.CaptureDurable(); err != nil || !bytes.Equal(again, ckpts[i]) {
					t.Fatalf("shard %d restored to superstep %d does not capture back to the same bytes (error %v)",
						i, commitAt, err)
				}
				active += len(s.frontier)
			}
			if commitAt > 1 && active != b.Active() {
				t.Fatalf("the shards restored %d active vertices, the barrier committed %d", active, b.Active())
			}
			step = commitAt - 1
			continue
		}
		quiesced := b.Close(reps)
		b.SuperstepEnd(step, obs.Totals{})
		if quiesced {
			break
		}
	}
	m := b.End(0)
	return &m
}
