package obs

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fullStream is a synthetic fault-free trace of two supersteps whose sums
// reconcile with its run_end — the shape the engine emits, less the
// cluster_step rows.
func fullStream() []Event {
	return []Event{
		RunStart{Vertices: 4, Workers: 2},
		SuperstepStart{Superstep: 1, Active: 4},
		SuperstepEnd{Superstep: 1, Totals: Totals{ComputeNS: 12, MessagingNS: 5, BarrierNS: 2,
			ComputeCalls: 4, Messages: 4, MessageBytes: 40, Delivered: 4}, Active: 3,
			Intervals: IntervalBytes{Unit: 8}},
		ShardStep{Superstep: 1, Shard: 0, ComputeNS: 10, WaitNS: 2, DeliverNS: 4},
		ShardStep{Superstep: 1, Shard: 1, ComputeNS: 12, DeliverNS: 3},
		SuperstepStart{Superstep: 2, Active: 3},
		SuperstepEnd{Superstep: 2, Totals: Totals{ComputeNS: 8, MessagingNS: 3, BarrierNS: 1,
			ComputeCalls: 3}, Active: 0},
		RunEnd{Supersteps: 2, Totals: Totals{ComputeCalls: 7, Messages: 4, MessageBytes: 40, Delivered: 4,
			ComputeNS: 20, MessagingNS: 8, BarrierNS: 3}, MakespanNS: 40, Halted: true},
	}
}

// TestRunEndAdd: a baseline that executes one run per snapshot folds their
// records with Add — every count, clock, supersteps, checkpoints,
// recoveries and makespan sum, and the receiver keeps its Halted.
func TestRunEndAdd(t *testing.T) {
	a := RunEnd{Supersteps: 3, Totals: Totals{ComputeCalls: 1, ScatterCalls: 2, Messages: 3, MessageBytes: 4,
		Delivered: 5, Spilled: 6, ComputeNS: 7, MessagingNS: 8, BarrierNS: 9},
		Checkpoints: 1, Recoveries: 2, MakespanNS: 30}
	var sum RunEnd
	sum.Add(a)
	sum.Add(RunEnd{Supersteps: 1, Totals: Totals{Messages: 10, BarrierNS: 1}, Recoveries: 1, MakespanNS: 5, Halted: true})
	want := RunEnd{Supersteps: 4, Totals: Totals{ComputeCalls: 1, ScatterCalls: 2, Messages: 13, MessageBytes: 4,
		Delivered: 5, Spilled: 6, ComputeNS: 7, MessagingNS: 8, BarrierNS: 10},
		Checkpoints: 1, Recoveries: 3, MakespanNS: 35}
	if sum != want {
		t.Errorf("folded %+v, want %+v", sum, want)
	}
}

func TestRecorderAndMultiTracer(t *testing.T) {
	var a, b Recorder
	mt := MultiTracer{&a, &b}
	for _, e := range fullStream() {
		mt.Emit(e)
	}
	if a.Count("superstep_end") != 2 || b.Count("superstep_end") != 2 {
		t.Errorf("fan-out lost events: a=%d b=%d", a.Count("superstep_end"), b.Count("superstep_end"))
	}
	ev := a.Events()
	if len(ev) != len(fullStream()) {
		t.Fatalf("recorded %d events, want %d", len(ev), len(fullStream()))
	}
	// Events() hands out a copy.
	ev[0] = RunEnd{}
	if _, ok := a.Events()[0].(RunStart); !ok {
		t.Error("Events() exposed internal storage")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Emit(ShardStep{Superstep: i})
			}
		}()
	}
	wg.Wait()
	if got := r.Count("shard_step"); got != 8*500 {
		t.Errorf("recorded %d events, want %d", got, 8*500)
	}
}

// TestMarshalEventShape pins the flat JSONL schema: type tag first, event
// fields spliced into the same object.
func TestMarshalEventShape(t *testing.T) {
	line, err := MarshalEvent(SuperstepStart{Superstep: 3, Active: 7})
	if err != nil {
		t.Fatalf("MarshalEvent: %v", err)
	}
	want := `{"type":"superstep_start","superstep":3,"active":7}`
	if string(line) != want {
		t.Errorf("line = %s, want %s", line, want)
	}
}

func TestParseTraceRoundTrip(t *testing.T) {
	events := fullStream()
	events = append(events, // exercise every remaining event type
		WarpStats{Superstep: 1, WarpCalls: 2, MsgsIn: 4, UnitMsgsIn: 3, UnitFraction: 0.75},
		Checkpoint{Superstep: 2, Index: 1},
		Recovery{Failed: 2, ResumeAt: 1, Attempt: 1, Epoch: 1, Gen: 1},
	)
	var sb strings.Builder
	jt := NewJSONLTracer(&sb)
	for _, e := range events {
		jt.Emit(e)
	}
	if err := jt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	back, err := ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(back) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Errorf("event %d: %#v != %#v", i, back[i], events[i])
		}
	}
}

// TestJSONLTraceAppendsAndTruncates is the one trace writer opened both ways:
// a second incarnation appending to the file the first left behind — without
// the first ever closing it, as after a kill -9 — yields one parseable trace
// of both, every event a whole line; creating the same path starts over.
func TestJSONLTraceAppendsAndTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	stream := fullStream()
	first, err := AppendJSONLTrace(path)
	if err != nil {
		t.Fatalf("AppendJSONLTrace: %v", err)
	}
	for _, e := range stream[:3] {
		first.Emit(e)
	}
	second, err := AppendJSONLTrace(path)
	if err != nil {
		t.Fatalf("AppendJSONLTrace again: %v", err)
	}
	for _, e := range stream[3:] {
		second.Emit(e)
	}
	parse := func() []Event {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		events, err := ParseTrace(f)
		if err != nil {
			t.Fatalf("ParseTrace: %v", err)
		}
		return events
	}
	if got := parse(); len(got) != len(stream) || got[2] != stream[2] || got[3] != stream[3] {
		t.Errorf("two appending incarnations left %d events, want the %d emitted in order", len(got), len(stream))
	}
	for _, jt := range []*JSONLTracer{first, second} {
		if err := jt.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}

	fresh, err := CreateJSONLTrace(path)
	if err != nil {
		t.Fatalf("CreateJSONLTrace: %v", err)
	}
	fresh.Emit(stream[0])
	if err := fresh.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if got := parse(); len(got) != 1 || got[0] != stream[0] {
		t.Errorf("a created trace holds %v, want only %v", got, stream[0])
	}
}

func TestParseTraceRejectsUnknownType(t *testing.T) {
	_, err := ParseTrace(strings.NewReader(`{"type":"wormhole"}`))
	if err == nil || !strings.Contains(err.Error(), "unknown event type") {
		t.Errorf("unknown type error = %v", err)
	}
}

// TestParseTraceReadsArchivedFields: a trace archived with the two retired
// kinds — worker_phase (here still carrying the counters of a scheduler since
// deleted) and cluster_recovery — keeps parsing, without them; the fields an
// event no longer has are dropped, the rest read as before.
func TestParseTraceReadsArchivedFields(t *testing.T) {
	const archived = `{"type":"worker_phase","superstep":2,"worker":1,"phase":"compute","ns":900,"compute_calls":3,"steal_ns":120,"steals":2}
{"type":"recovery","failed":3,"resume_at":3,"attempt":1,"reason":"worker_lost"}
{"type":"cluster_recovery","epoch":1,"failed":3,"resume_at":3,"gen":1,"detect_ns":5,"mttr_ns":9,"restored_bytes":64}
`
	events, err := ParseTrace(strings.NewReader(archived))
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	want := Recovery{Failed: 3, ResumeAt: 3, Attempt: 1}
	if len(events) != 1 || events[0] != want {
		t.Errorf("parsed %#v, want only %#v", events, want)
	}
}

func TestValidateTraceAcceptsFaultFree(t *testing.T) {
	if err := ValidateTrace(fullStream()); err != nil {
		t.Errorf("fault-free stream rejected: %v", err)
	}
}

// TestValidateTraceReplayAware: a rollback-and-replay trace must reconcile
// using only the surviving execution of each superstep — the replayed
// superstep's first (abandoned) totals are discarded, exactly mirroring the
// engine's metric rewind.
func TestValidateTraceReplayAware(t *testing.T) {
	events := []Event{
		RunStart{Vertices: 4, Workers: 2, Checkpoints: true},
		Checkpoint{Superstep: 1, Index: 1},
		SuperstepStart{Superstep: 1, Active: 4},
		SuperstepEnd{Superstep: 1, Totals: Totals{ComputeCalls: 4, Messages: 4, MessageBytes: 8},
			Intervals: IntervalBytes{Unit: 8}},
		Checkpoint{Superstep: 2, Index: 2},
		SuperstepStart{Superstep: 2, Active: 4},
		SuperstepEnd{Superstep: 2, Totals: Totals{ComputeCalls: 9, Messages: 9, MessageBytes: 18},
			Intervals: IntervalBytes{Unit: 18}}, // abandoned
		Recovery{Failed: 3, ResumeAt: 2, Attempt: 1},
		SuperstepStart{Superstep: 2, Active: 4},
		SuperstepEnd{Superstep: 2, Totals: Totals{ComputeCalls: 3, Messages: 3, MessageBytes: 6},
			Intervals: IntervalBytes{Unit: 6}}, // survives
		RunEnd{Supersteps: 2, Totals: Totals{ComputeCalls: 7, Messages: 7, MessageBytes: 14},
			Checkpoints: 2, Recoveries: 1},
	}
	if err := ValidateTrace(events); err != nil {
		t.Errorf("replay-aware validation failed: %v", err)
	}
}

func TestValidateTraceRejections(t *testing.T) {
	base := fullStream()
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"empty", nil, "empty trace"},
		{"no run_start", base[1:], "must open with run_start"},
		{"no run_end", base[:len(base)-1], "must close with run_end"},
		{"missing superstep", func() []Event {
			ev := append([]Event(nil), base...)
			// Drop superstep 1's end: count check fires first.
			return append(ev[:2], ev[3:]...)
		}(), "surviving supersteps"},
		{"end without start", func() []Event {
			ev := append([]Event(nil), base...)
			return append(ev[:5], ev[6:]...) // drop superstep 2's start
		}(), "without a superstep_start"},
		{"bad totals", func() []Event {
			ev := append([]Event(nil), base...)
			end := ev[len(ev)-1].(RunEnd)
			end.Messages += 5
			ev[len(ev)-1] = end
			return ev
		}(), "does not reconcile"},
		{"bad delivered", func() []Event {
			ev := append([]Event(nil), base...)
			end := ev[len(ev)-1].(RunEnd)
			end.Delivered--
			ev[len(ev)-1] = end
			return ev
		}(), "sum(delivered) = 4, run_end total = 3"},
		{"no interval bytes", func() []Event {
			ev := append([]Event(nil), base...)
			end := ev[2].(SuperstepEnd)
			end.Intervals = IntervalBytes{}
			ev[2] = end
			return ev
		}(), "superstep 1: interval_bytes total 0 outside [messages 4, message_bytes 40]"},
		{"more delivered than sent", func() []Event {
			ev := append([]Event(nil), base...)
			end := ev[2].(SuperstepEnd)
			end.Delivered = 5
			ev[2] = end
			return ev
		}(), "superstep 1: delivered 5 exceeds messages 4"},
		{"more spilled than sent", func() []Event {
			ev := append([]Event(nil), base...)
			end := ev[2].(SuperstepEnd)
			end.Spilled = 5
			ev[2] = end
			return ev
		}(), "superstep 1: spilled 5 exceeds messages 4"},
	}
	for _, tc := range cases {
		err := ValidateTrace(tc.events)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestTotalsCheck: the ledger's rules, each broken once and each edge held.
func TestTotalsCheck(t *testing.T) {
	sent := Totals{Messages: 4, MessageBytes: 40, Delivered: 4, Spilled: 4}
	for _, tc := range []struct {
		name  string
		t     Totals
		folds bool
		iv    *IntervalBytes
		want  string // "" when t keeps the rules
	}{
		{"all delivered, no combiner", sent, false, &IntervalBytes{Unit: 4, General: 36}, ""},
		{"folded under a combiner", Totals{Messages: 4, MessageBytes: 40, Delivered: 1}, true, nil, ""},
		{"folded without a combiner", Totals{Messages: 4, MessageBytes: 40, Delivered: 1}, false, nil,
			"delivered 1 of 4 messages with no combiner"},
		{"more delivered than sent", Totals{Messages: 4, Delivered: 5}, true, nil, "delivered 5 exceeds messages 4"},
		{"more spilled than sent", Totals{Messages: 4, Delivered: 4, Spilled: 5}, false, nil, "spilled 5 exceeds messages 4"},
		{"interval bytes unrecorded", sent, false, nil, ""},
		{"fewer interval bytes than messages", sent, false, &IntervalBytes{Unit: 3},
			"interval_bytes total 3 outside [messages 4, message_bytes 40]"},
		{"more interval bytes than message bytes", sent, false, &IntervalBytes{General: 41},
			"interval_bytes total 41 outside [messages 4, message_bytes 40]"},
	} {
		err := tc.t.Check(tc.folds, tc.iv)
		if (tc.want == "") != (err == nil) || err != nil && err.Error() != tc.want {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSplitRuns: a concatenated multi-run stream (what graphite-bench
// writes) splits at each run_start, and every piece validates on its own.
func TestSplitRuns(t *testing.T) {
	one := fullStream()
	three := append(append(append([]Event{}, one...), one...), one...)
	runs := SplitRuns(three)
	if len(runs) != 3 {
		t.Fatalf("SplitRuns found %d runs, want 3", len(runs))
	}
	for i, run := range runs {
		if len(run) != len(one) {
			t.Errorf("run %d has %d events, want %d", i, len(run), len(one))
		}
		if err := ValidateTrace(run); err != nil {
			t.Errorf("run %d does not validate: %v", i, err)
		}
	}
	if got := SplitRuns(nil); got != nil {
		t.Errorf("SplitRuns(nil) = %v, want nil", got)
	}
	// Events before the first run_start are dropped.
	if got := SplitRuns([]Event{SuperstepStart{Superstep: 1}}); got != nil {
		t.Errorf("leading orphan events should be dropped, got %v", got)
	}
	// So are those after a run_end: a worker the coordinator loses after the
	// run has ended, trailing the last run or between two.
	lost := WorkerLost{Shard: 1, Superstep: 3, Reason: "connection reset"}
	for _, tc := range []struct {
		name   string
		events []Event
		runs   int
	}{
		{"trailing worker_lost", append(append([]Event{}, one...), lost), 1},
		{"worker_lost between runs", append(append(append([]Event{}, one...), lost), one...), 2},
	} {
		runs := SplitRuns(tc.events)
		if len(runs) != tc.runs {
			t.Fatalf("%s: SplitRuns found %d runs, want %d", tc.name, len(runs), tc.runs)
		}
		for i, run := range runs {
			if len(run) != len(one) {
				t.Errorf("%s: run %d has %d events, want %d", tc.name, i, len(run), len(one))
			}
			if err := ValidateTrace(run); err != nil {
				t.Errorf("%s: run %d does not validate: %v", tc.name, i, err)
			}
		}
	}
}

// TestSummarizeRejectsBadNumbering: a trace whose supersteps are not numbered
// 1..n — one numbered 0, or a gap — is an error, returned at once.
func TestSummarizeRejectsBadNumbering(t *testing.T) {
	const start = `{"type":"run_start","vertices":1,"workers":1}` + "\n"
	for _, tc := range []struct{ name, trace string }{
		{"zero", start + `{"type":"superstep_start","superstep":0,"active":1}`},
		{"gap", start + `{"type":"superstep_start","superstep":1,"active":1}` + "\n" +
			`{"type":"superstep_start","superstep":3,"active":1}`},
	} {
		events, err := ParseTrace(strings.NewReader(tc.trace))
		if err != nil {
			t.Fatalf("%s: ParseTrace: %v", tc.name, err)
		}
		began := time.Now()
		s, err := Summarize(events)
		if took := time.Since(began); took > 100*time.Millisecond {
			t.Errorf("%s: Summarize took %v", tc.name, took)
		}
		if err == nil || !strings.Contains(err.Error(), "not numbered 1..") {
			t.Errorf("%s: Summarize = %+v, %v; want a numbering error", tc.name, s, err)
		}
	}
}

// TestSummarizeReplayOverwrite: a replayed superstep appears once in the
// summary, with the surviving execution's metrics and a recovery count.
func TestSummarizeReplayOverwrite(t *testing.T) {
	events := []Event{
		RunStart{Vertices: 4, Workers: 2},
		SuperstepStart{Superstep: 1, Active: 4},
		SuperstepEnd{Superstep: 1, Totals: Totals{ComputeCalls: 9, Messages: 9}}, // abandoned
		Recovery{Failed: 1, ResumeAt: 1, Attempt: 1},
		SuperstepStart{Superstep: 1, Active: 4},
		SuperstepEnd{Superstep: 1, Totals: Totals{ComputeCalls: 4, Messages: 4}, Active: 0},
		RunEnd{Supersteps: 1, Totals: Totals{ComputeCalls: 4, Messages: 4}, Recoveries: 1},
	}
	s, err := Summarize(events)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if len(s.Rows) != 1 {
		t.Fatalf("summary has %d rows, want 1", len(s.Rows))
	}
	r := s.Rows[0]
	if r.ComputeCalls != 4 || r.Messages != 4 {
		t.Errorf("row kept abandoned metrics: %+v", r)
	}
	if r.Recoveries != 1 {
		t.Errorf("row recoveries = %d, want 1", r.Recoveries)
	}
	var sb strings.Builder
	s.Render(&sb)
	if !strings.Contains(sb.String(), "recover×1") {
		t.Errorf("render lost the recovery marker:\n%s", sb.String())
	}
}
