package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runTransitSSSP runs temporal SSSP over the paper's transit example with a
// fixed worker count, a fixed span and a recorder attached — everything about
// the run is deterministic except wall-clock timings.
func runTransitSSSP(t *testing.T) (*core.Result, *obs.Recorder) {
	t.Helper()
	g := tgraph.TransitExample()
	prog, opts, err := algorithms.New(g, "sssp", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatalf("algorithms.New: %v", err)
	}
	opts.NumWorkers = 2
	opts.Span = "transit-sssp"
	rec := &obs.Recorder{}
	opts.Tracer = rec
	res, err := core.Run(g, prog, opts)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return res, rec
}

// timingKeys are the JSONL fields that vary run to run, the last two because
// they follow from the compute clocks; the golden test zeroes them, in a
// cluster_step's shard records too, so the comparison pins schema, ordering
// and every deterministic quantity.
var timingKeys = []string{"compute_ns", "messaging_ns", "barrier_ns", "makespan_ns",
	"wait_ns", "deliver_ns", "peer_send_ns", "wall_ns", "slowest_shard", "skew_milli"}

func zeroTimings(m map[string]any) {
	for _, k := range timingKeys {
		if _, ok := m[k]; ok {
			m[k] = 0
		}
	}
	shards, _ := m["shards"].([]any)
	for _, s := range shards {
		zeroTimings(s.(map[string]any))
	}
}

func normalizeLine(t *testing.T, line []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("unmarshal trace line %s: %v", line, err)
	}
	zeroTimings(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-marshal trace line: %v", err)
	}
	return out
}

// TestTransitSSSPTraceGolden locks the JSONL trace of the deterministic
// transit SSSP run against a golden file (regenerate with `go test
// ./internal/obs -run Golden -update`). Timing fields are normalized to 0;
// event order, counts, byte sizes, warp stats and activity are exact.
func TestTransitSSSPTraceGolden(t *testing.T) {
	_, rec := runTransitSSSP(t)
	var buf bytes.Buffer
	for _, e := range rec.Events() {
		line, err := obs.MarshalEvent(e)
		if err != nil {
			t.Fatalf("MarshalEvent: %v", err)
		}
		buf.Write(normalizeLine(t, line))
		buf.WriteByte('\n')
	}

	golden := filepath.Join("testdata", "transit_sssp.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if bytes.Equal(want, buf.Bytes()) {
		return
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("trace line %d:\n  got:  %s\n  want: %s", i+1, g, w)
		}
	}
}

// TestTransitSSSPTraceReconciles is the acceptance check that the trace is
// the exact per-superstep decomposition of the final metrics: ValidateTrace
// sums the superstep_end events against the trace's own run_end, and the
// run_end in turn must equal the Metrics the run returned.
func TestTransitSSSPTraceReconciles(t *testing.T) {
	res, rec := runTransitSSSP(t)
	events := rec.Events()
	if err := obs.ValidateTrace(events); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	end, ok := events[len(events)-1].(obs.RunEnd)
	if !ok {
		t.Fatalf("last event is %s, want run_end", events[len(events)-1].Kind())
	}
	m := res.Metrics
	checks := []struct {
		name      string
		got, want int64
	}{
		{"supersteps", int64(end.Supersteps), int64(m.Supersteps)},
		{"compute_calls", end.ComputeCalls, m.ComputeCalls},
		{"scatter_calls", end.ScatterCalls, m.ScatterCalls},
		{"messages", end.Messages, m.Messages},
		{"message_bytes", end.MessageBytes, m.MessageBytes},
		{"checkpoints", int64(end.Checkpoints), int64(m.Checkpoints)},
		{"recoveries", int64(end.Recoveries), int64(m.Recoveries)},
		{"compute_ns", end.ComputeNS, int64(m.ComputePlusTime)},
		{"messaging_ns", end.MessagingNS, int64(m.MessagingTime)},
		{"barrier_ns", end.BarrierNS, int64(m.BarrierTime)},
		{"makespan_ns", end.MakespanNS, int64(m.Makespan)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("run_end %s = %d, engine metrics say %d", c.name, c.got, c.want)
		}
	}

	// The warp stream must cover every superstep and stay internally
	// consistent with the engine's message counts.
	var msgsIn int64
	for _, e := range events {
		if w, ok := e.(obs.WarpStats); ok {
			msgsIn += w.MsgsIn
			if w.UnitFraction < 0 || w.UnitFraction > 1 {
				t.Errorf("superstep %d unit fraction %v out of range", w.Superstep, w.UnitFraction)
			}
		}
	}
	if msgsIn > m.Messages {
		t.Errorf("warp saw %d effective messages, engine sent only %d", msgsIn, m.Messages)
	}

	// The registry the run published into (none was passed, so re-run with
	// one) exposes the same totals under the canonical names, and the
	// interval bytes its trace carries.
	g := tgraph.TransitExample()
	prog, opts, err := algorithms.New(g, "sssp", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatalf("algorithms.New: %v", err)
	}
	opts.NumWorkers = 2
	reg, rec2 := obs.NewRegistry(), &obs.Recorder{}
	opts.Registry, opts.Tracer = reg, rec2
	res2, err := core.Run(g, prog, opts)
	if err != nil {
		t.Fatalf("core.Run with registry: %v", err)
	}
	m2 := res2.Metrics
	for _, c := range []struct {
		name string
		want int64
	}{
		{obs.CSupersteps, int64(m2.Supersteps)},
		{obs.CComputeCalls, m2.ComputeCalls},
		{obs.CScatterCalls, m2.ScatterCalls},
		{obs.CMessages, m2.Messages},
		{obs.CMessageBytes, m2.MessageBytes},
		{obs.CDelivered, m2.Delivered},
		{obs.CComputePlusNS, int64(m2.ComputePlusTime)},
		{obs.CMessagingNS, int64(m2.MessagingTime)},
		{obs.CBarrierNS, int64(m2.BarrierTime)},
		{obs.CMakespanNS, int64(m2.Makespan)},
	} {
		if got := reg.Counter(c.name).Load(); got != c.want {
			t.Errorf("registry %s = %d, metrics say %d", c.name, got, c.want)
		}
	}
	var traced obs.IntervalBytes
	for _, e := range rec2.Events() {
		if end, ok := e.(obs.SuperstepEnd); ok {
			traced.Add(end.Intervals)
		}
	}
	published := obs.IntervalBytes{
		Unit:      reg.Counter(obs.CIntervalBytesUnit).Load(),
		Unbounded: reg.Counter(obs.CIntervalBytesUnbounded).Load(),
		General:   reg.Counter(obs.CIntervalBytesGeneral).Load(),
		Empty:     reg.Counter(obs.CIntervalBytesEmpty).Load(),
	}
	if published != traced || traced == (obs.IntervalBytes{}) {
		t.Errorf("registry interval bytes %+v, trace %+v (want equal, non-zero)", published, traced)
	}
	if got := reg.Counter(obs.CWarpCalls).Load(); got != res2.Stats.WarpCalls {
		t.Errorf("registry %s = %d, stats say %d", obs.CWarpCalls, got, res2.Stats.WarpCalls)
	}
	if got := reg.Histogram(obs.HSuperstepComputeNS).Count(); got != int64(res2.Metrics.Supersteps) {
		t.Errorf("compute histogram observed %d supersteps, want %d", got, res2.Metrics.Supersteps)
	}
}

// TestJSONLTraceFileRoundTrip drives the same run through the file-backed
// tracer and the parser — what graphite-run -trace + graphite-trace do.
func TestJSONLTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	jt, err := obs.CreateJSONLTrace(path)
	if err != nil {
		t.Fatalf("CreateJSONLTrace: %v", err)
	}
	g := tgraph.TransitExample()
	prog, opts, err := algorithms.New(g, "sssp", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatalf("algorithms.New: %v", err)
	}
	opts.NumWorkers = 2
	opts.Tracer = jt
	if _, err := core.Run(g, prog, opts); err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	if err := jt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	events, err := obs.ParseTrace(f)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if err := obs.ValidateTrace(events); err != nil {
		t.Fatalf("file trace does not validate: %v", err)
	}
	s, err := obs.Summarize(events)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	var sb strings.Builder
	s.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Step", "makespan=", fmt.Sprintf("%d vertices", g.NumVertices())} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered summary missing %q:\n%s", want, out)
		}
	}
}
