package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// controlMessage returns a zero value of the JSON message a frame type
// carries, as the coordinator, the worker and the mesh accept loop decode it;
// nil for the binary frames and for types that carry nothing.
func controlMessage(ftype byte) any {
	switch ftype {
	case fHello:
		return &helloMsg{}
	case fAssign:
		return &assignMsg{}
	case fReady:
		return &readyMsg{}
	case fStep:
		return &stepMsg{}
	case fStepDone:
		return &stepDoneMsg{}
	case fRollback:
		return &rollbackMsg{}
	case fCollect:
		return &collectMsg{}
	case fError:
		return &errorMsg{}
	case fPeers:
		return &peersMsg{}
	case fMeshed:
		return &meshedMsg{}
	case fMeshHello:
		return &meshHelloMsg{}
	}
	return nil
}

// FuzzClusterFrames feeds the first decoders a peer's bytes reach — the
// frame reader, then the data and result headers or the control message of
// the frame's type — arbitrary input. Nothing may panic; a frame reads back
// as it was written; and whatever parses is a fixed point of re-encoding:
// encoded again it parses to the same value, and that value encodes to the
// same bytes.
func FuzzClusterFrames(f *testing.F) {
	seedJSON := func(ftype byte, v any) {
		p, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ftype, p)
	}
	seedJSON(fHello, helloMsg{PrevShard: -1, MeshAddr: "127.0.0.1:4000"})
	seedJSON(fAssign, assignMsg{Shard: 1, Shards: 2, Epoch: 3, RestoreGen: -1, Graph: "transit", Algo: "sssp",
		Params: algorithms.Params{Source: 4, Window: ival.New(2, 9)}, CheckpointEvery: 2, HeartbeatNS: 5e7, Span: "ab12"})
	seedJSON(fReady, readyMsg{Epoch: 1, Shard: 1, Superstep: 4, Gen: 2, RestoredBytes: 99})
	seedJSON(fStep, stepMsg{Epoch: 1, Superstep: 4, Checkpoint: true, Gen: 2})
	seedJSON(fStepDone, stepDoneMsg{StepReport: report(4, 3, obs.Totals{Delivered: 7}),
		Step: obs.ShardStep{Span: "ab12", Superstep: 4, Shard: 1, Epoch: 1, ComputeNS: 90, DirectBytes: 512}, CkptGen: -1})
	seedJSON(fPeers, peersMsg{Epoch: 2, Addrs: []string{"127.0.0.1:1", ""}})
	seedJSON(fMeshed, meshedMsg{Epoch: 2, Shard: 0})
	// Fields this decoder does not have (a peer of another build) are ignored.
	f.Add(fStep, []byte(`{"epoch":1,"superstep":4,"checkpoint":true,"gen":2,"direct":true}`))
	f.Add(fMeshed, []byte(`{"epoch":2,"shard":0,"ok":false,"err":"dial: refused"}`))
	seedJSON(fMeshHello, meshHelloMsg{Shard: 1, Epoch: 2})
	seedJSON(fRollback, rollbackMsg{Epoch: 3, Gen: 1})
	seedJSON(fError, errorMsg{Shard: 1, Msg: "panic at vertex 3"})
	f.Add(fData, appendDataHeader(nil, dataHeader{epoch: 1, superstep: 2, src: 0, dst: 1}))
	f.Add(fData, append(appendDataHeader(nil, dataHeader{epoch: 1 << 40, superstep: 1, src: 1, dst: 0}), 1, 2, 3))
	f.Add(fData, []byte{0x80, 0x00, 1, 2, 3}) // a non-canonical varint
	f.Add(fData, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0})
	f.Add(fResult, append(appendResultHeader(nil, 2, 1), "states"...))
	f.Add(fResult, []byte{0x81})
	f.Add(fHeartbeat, []byte(nil))
	f.Add(byte(0), []byte(`{"shard":1e400}`))
	seedJSON(fStep, stepMsg{Epoch: 1, Superstep: 5, Phase: 3})
	full := report(5, 4, obs.Totals{ComputeCalls: 9, ScatterCalls: 12, Messages: 6, MessageBytes: 70, Spilled: 2})
	full.Intervals = obs.IntervalBytes{Unit: 6, Unbounded: 3}
	full.Aggs = []codec.Word{codec.IntWord(1), codec.FloatWord(-0.5)}
	seedJSON(fStepDone, stepDoneMsg{StepReport: full, Step: obs.ShardStep{Superstep: 5, Shard: 2, Epoch: 1}, CkptGen: -1})
	// A report carrying fields this decoder does not have (epoch, shard,
	// direct_bytes at the top level): they are ignored.
	f.Add(fStepDone, []byte(`{"epoch":1,"superstep":4,"shard":1,"delivered":7,"active":3,"compute_calls":2,`+
		`"scatter_calls":0,"messages":5,"message_bytes":40,"interval_bytes":{"unit":5},"ckpt_gen":-1,"ckpt_bytes":0,"direct_bytes":512}`))
	// A report carrying a clock, which the barrier would count twice.
	f.Add(fStepDone, []byte(`{"superstep":4,"delivered":7,"active":3,"barrier_ns":40,"step":{"superstep":4},"ckpt_gen":-1}`))

	f.Fuzz(func(t *testing.T, ftype byte, payload []byte) {
		var wire bytes.Buffer
		if err := writeConnFrame(&wire, ftype, payload); err != nil {
			t.Fatalf("write frame: %v", err)
		}
		gotType, got, err := readConnFrame(&wire)
		if err != nil || gotType != ftype || !bytes.Equal(got, payload) {
			t.Fatalf("frame (%d, %x) read back as (%d, %x), error %v", ftype, payload, gotType, got, err)
		}

		if h, rest, err := parseDataHeader(payload); err == nil {
			again := append(appendDataHeader(nil, h), rest...)
			h2, rest2, err := parseDataHeader(again)
			if err != nil || h2 != h || !bytes.Equal(rest2, rest) {
				t.Fatalf("data header %+v re-encoded parses as %+v (%v)", h, h2, err)
			}
		}
		if epoch, shard, blob, err := parseResultHeader(payload); err == nil {
			again := append(appendResultHeader(nil, epoch, shard), blob...)
			e2, s2, blob2, err := parseResultHeader(again)
			if err != nil || e2 != epoch || s2 != shard || !bytes.Equal(blob2, blob) {
				t.Fatalf("result header (%d, %d) re-encoded parses as (%d, %d) (%v)", epoch, shard, e2, s2, err)
			}
		}

		// The frame's own message when the type has one, else every message:
		// a decoder must hold up under bytes meant for another.
		for ft := fHello; ft <= fMeshHello; ft++ {
			msg := controlMessage(ft)
			if msg == nil || controlMessage(ftype) != nil && ft != ftype {
				continue
			}
			if parseJSON(payload, msg) != nil {
				continue
			}
			enc, err := json.Marshal(msg)
			if err != nil {
				t.Fatalf("%T parsed from %q does not encode: %v", msg, payload, err)
			}
			again := controlMessage(ft)
			if err := parseJSON(enc, again); err != nil {
				t.Fatalf("%T re-encoded as %q does not parse: %v", msg, enc, err)
			}
			enc2, err := json.Marshal(again)
			if err != nil || !reflect.DeepEqual(again, msg) || !bytes.Equal(enc2, enc) {
				t.Fatalf("%T is not a fixed point of re-encoding: %q then %q (%v)", msg, enc, enc2, err)
			}
		}
	})
}

// report is a shard's barrier report of superstep s: its counts and its
// frontier after delivery.
func report(s, active int, counts obs.Totals) engine.StepReport {
	return engine.StepReport{SuperstepEnd: obs.SuperstepEnd{Superstep: s, Totals: counts, Active: active}}
}

// TestBarrierFieldsOmittedWhenEmpty: the phase a step carries, and the
// aggregator partials, spilled count and interval bytes a barrier report
// carries, are omitted when empty, so a program without a master, aggregators
// or spilled payloads puts none of them on the wire, nor a superstep that
// sent nothing its interval bytes. The report is the superstep's record under
// its trace names, without the clocks (a worker's clocks travel in its step).
func TestBarrierFieldsOmittedWhenEmpty(t *testing.T) {
	sent := report(4, 3, obs.Totals{Messages: 2, MessageBytes: 9, Delivered: 7})
	sent.Intervals = obs.IntervalBytes{Unit: 2}
	for _, tc := range []struct {
		msg  any
		want string
	}{
		{stepMsg{Epoch: 1, Superstep: 4, Checkpoint: true, Gen: 2}, `{"epoch":1,"superstep":4,"checkpoint":true,"gen":2}`},
		{stepDoneMsg{StepReport: report(4, 3, obs.Totals{Delivered: 7}),
			Step: obs.ShardStep{Superstep: 4, Shard: 1, Epoch: 1, DirectBytes: 512}, CkptGen: -1},
			`{"superstep":4,"compute_calls":0,"scatter_calls":0,"messages":0,"message_bytes":0,"delivered":7,"active":3,` +
				`"step":{"superstep":4,"shard":1,"epoch":1,"compute_ns":0,"wait_ns":0,"deliver_ns":0,"direct_bytes":512},` +
				`"ckpt_gen":-1,"ckpt_bytes":0}`},
		{stepDoneMsg{StepReport: sent, Step: obs.ShardStep{Superstep: 4, Shard: 1, Epoch: 1}, CkptGen: -1},
			`{"superstep":4,"compute_calls":0,"scatter_calls":0,"messages":2,"message_bytes":9,"delivered":7,"active":3,` +
				`"step":{"superstep":4,"shard":1,"epoch":1,"compute_ns":0,"wait_ns":0,"deliver_ns":0},` +
				`"ckpt_gen":-1,"ckpt_bytes":0,"interval_bytes":{"unit":2}}`},
	} {
		got, err := json.Marshal(tc.msg)
		if err != nil || string(got) != tc.want {
			t.Errorf("%T encodes as %s (%v), want %s", tc.msg, got, err, tc.want)
		}
	}
}

// TestBarrierReportWithClocksRejected: the barrier adds the coordinator's
// clocks to the sum of its reports, so a report carrying a clock of its own
// would count twice; it does not parse.
func TestBarrierReportWithClocksRejected(t *testing.T) {
	for _, clock := range []string{"compute_ns", "messaging_ns", "barrier_ns"} {
		payload := `{"superstep":4,"delivered":7,"active":3,"` + clock + `":5,"step":{"superstep":4},"ckpt_gen":-1}`
		var sd stepDoneMsg
		if err := parseJSON([]byte(payload), &sd); err == nil {
			t.Errorf("a report carrying %s parsed: %+v", clock, sd)
		}
	}
}
