package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/live"
	"graphite/internal/tgraph"
	"graphite/internal/warp"
)

// The oracle of render.go is the encoder it replaced: a json.Encoder with
// SetIndent("", "  "), which wrote json.MarshalIndent's bytes and a newline
// (wantJSON) of a result whose vertices were decoded values. Every body
// render.go writes must indent to exactly those bytes.

// encodeIndented writes v as every /v1/run and /v1/jobs/{id} body was
// written before render.go.
func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// decodedRun and decodedJob are a result and a job as the encoder saw them:
// the vertices as values, not as the result's own bytes.
type decodedRun struct {
	RunResult
	Vertices []VertexResult `json:"vertices"`
}

type decodedJob struct {
	JobView
	Result *decodedRun `json:"result,omitempty"`
}

func decodeRun(t testing.TB, res *RunResult) *decodedRun {
	t.Helper()
	vs, err := res.Vertices.Decode()
	if err != nil {
		t.Fatalf("the vertices do not decode: %v", err)
	}
	return &decodedRun{RunResult: *res, Vertices: vs}
}

func decodeJob(t testing.TB, jv *JobView) *decodedJob {
	d := &decodedJob{JobView: *jv}
	if jv.Result != nil {
		d.Result = decodeRun(t, jv.Result)
	}
	return d
}

// discardResponse is a ResponseWriter that keeps only a count of the bytes
// written to it.
type discardResponse struct {
	h http.Header
	n int
}

func newDiscard() *discardResponse { return &discardResponse{h: http.Header{}} }

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

func renderRun(res *RunResult) []byte {
	rec := httptest.NewRecorder()
	writeRun(rec, http.StatusOK, res)
	return rec.Body.Bytes()
}

func renderJob(jv *JobView) []byte {
	rec := httptest.NewRecorder()
	writeJob(rec, http.StatusOK, jv)
	return rec.Body.Bytes()
}

// checkBody requires body to indent to the oracle's rendering of v, and to
// decode to what the oracle's rendering decodes to.
func checkBody[T any](t *testing.T, name string, body []byte, v *T) {
	t.Helper()
	var indented bytes.Buffer
	if err := json.Indent(&indented, body, "", "  "); err != nil {
		t.Fatalf("%s: the body is not JSON: %v\n%s", name, err, body)
	}
	want := wantJSON(t, v)
	if got := indented.String(); got != want {
		t.Fatalf("%s: json.Indent(body) differs from the indenting encoder's body\n got: %.400q\nwant: %.400q", name, got, want)
	}
	var got, was T
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: the body does not decode: %v", name, err)
	}
	if err := json.Unmarshal([]byte(want), &was); err != nil || !reflect.DeepEqual(got, was) {
		t.Fatalf("%s: the body decodes to a different value (%v)", name, err)
	}
}

// checkRun checks the body of a result against the oracle.
func checkRun(t *testing.T, name string, res *RunResult) {
	t.Helper()
	checkBody(t, name, renderRun(res), decodeRun(t, res))
}

// state is a vertex's final state: init over lifespan, then each of sets.
func state(t testing.TB, lifespan ival.Interval, init any, sets ...warp.IntervalValue) *core.PartitionedState {
	st := core.NewPartitionedState(lifespan, init)
	for _, p := range sets {
		if err := st.Set(p.Interval, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// byID yields vertices ids[i] with states sts[i], as a finished run's
// Result.ByID does.
func byID(ids []tgraph.VertexID, sts []*core.PartitionedState) iter.Seq2[*tgraph.Vertex, *core.PartitionedState] {
	vs := make([]tgraph.Vertex, len(ids))
	for i, id := range ids {
		vs[i].ID = id
	}
	return func(yield func(*tgraph.Vertex, *core.PartitionedState) bool) {
		for i := range vs {
			if !yield(&vs[i], sts[i]) {
				return
			}
		}
	}
}

// oldVertices is what the encoder was given before render.go: each part's
// interval and %v value as strings. Unlike decoded vertices, its strings
// keep the invalid UTF-8 the body carries as \ufffd.
func oldVertices(ids []tgraph.VertexID, sts []*core.PartitionedState) []VertexResult {
	vs := make([]VertexResult, len(ids))
	for i, st := range sts {
		vs[i].ID = int64(ids[i])
		for _, p := range st.Parts() {
			vs[i].Parts = append(vs[i].Parts, StatePart{p.Interval.String(), fmt.Sprintf("%v", p.Value)})
		}
	}
	return vs
}

// syntheticStates are n vertices of two parts each, the second one
// unbounded.
func syntheticStates(t testing.TB, n int) iter.Seq2[*tgraph.Vertex, *core.PartitionedState] {
	ids, sts := make([]tgraph.VertexID, n), make([]*core.PartitionedState, n)
	for i := range n {
		ids[i] = tgraph.VertexID(3 * i)
		sts[i] = state(t, ival.From(0), int64(math.MaxInt64), warp.IntervalValue{Interval: ival.From(int64(i + 1)), Value: int64(i)})
	}
	return byID(ids, sts)
}

// syntheticResult is a result of syntheticStates(n).
func syntheticResult(t testing.TB, n int) *RunResult {
	return &RunResult{Graph: "twitter", Algorithm: "sssp", Fingerprint: "f00d", Window: "[0,inf)", Span: "0123456789abcdef",
		Metrics:  RunMetrics{Supersteps: 7, ComputeCalls: int64(n), Messages: 3 * int64(n)},
		Vertices: renderVertices(syntheticStates(t, n))}
}

// TestRunBodyIndentsToToday: every body that carries a run result — each
// catalog algorithm over the whole graph and over a window, cached, seeded,
// over a live epoch, under a client's span, results the server never makes,
// and jobs with and without one — indents to the body the encoder wrote and
// decodes to the value it renders.
func TestRunBodyIndentsToToday(t *testing.T) {
	built, _ := churnGraph(t)
	s, _ := newTestServer(t, Config{Graphs: map[string]*tgraph.Graph{"g": built}, Workers: 2})
	ctx := context.Background()
	exec := func(req *RunRequest) *RunResult {
		t.Helper()
		res, err := s.Execute(ctx, req)
		if err != nil {
			t.Fatalf("%s over %+v: %v", req.Algorithm, req.Window, err)
		}
		return res
	}
	h := int64(built.Horizon())
	var last *RunRequest
	for _, win := range []Window{{}, {h / 8, h / 4}} {
		w, err := normalizeWindow(&win)
		if err != nil {
			t.Fatal(err)
		}
		var src, dst tgraph.VertexID
		for i := range built.Edges() {
			if e := built.Edge(i); e.Lifespan.Intersects(w) {
				src, dst = e.Src, e.Dst
				break
			}
		}
		for _, algo := range algorithms.Names() {
			win := win
			last = &RunRequest{Graph: "g", Algorithm: algo, Window: &win,
				Params: map[string]int64{"source": int64(src), "target": int64(dst)}}
			checkRun(t, fmt.Sprintf("%s over %v", algo, w), exec(last))
		}
	}
	if res := exec(last); !res.Cached {
		t.Fatal("a repeated request was not served from the cache")
	} else {
		checkRun(t, "cached", res)
	}
	src := earlySource(t, built, h/8)
	for _, end := range []int64{h / 4, h / 2} {
		res := exec(&RunRequest{Graph: "g", Algorithm: "eat", Params: map[string]int64{"source": int64(src)}, Window: &Window{0, end}})
		if res.Seeded != (end == h/2) {
			t.Fatalf("eat over [0, %d): seeded = %v", end, res.Seeded)
		}
		checkRun(t, fmt.Sprintf("eat over [0, %d)", end), res)
	}
	res := exec(&RunRequest{Graph: "g", Algorithm: "bfs", Span: "0123456789abcdef", Params: map[string]int64{"source": int64(src)}})
	if res.Span != "0123456789abcdef" {
		t.Fatalf("span %q, want the client's", res.Span)
	}
	checkRun(t, "client span", res)

	ls, _, _ := newLiveServer(t, live.Options{Name: "g"})
	if _, err := ls.ApplyEvents("g", chainEvents(0, 8, 1)); err != nil {
		t.Fatal(err)
	}
	lres, err := ls.Execute(ctx, &RunRequest{Graph: "g", Algorithm: "eat", Params: map[string]int64{"source": 0}})
	if err != nil || lres.Epoch != 1 {
		t.Fatalf("live run: epoch %v, %v", lres, err)
	}
	checkRun(t, "live epoch", lres)

	odd := syntheticResult(t, 3)
	odd.Graph, odd.Algorithm, odd.Fingerprint, odd.Span = "q\"b\\s</script>&\u2028\u2029\x00\x1f\x7f\b\f\n\r\t", "", "∞\xff\xc3", ""
	odd.Cached, odd.Seeded, odd.Epoch = true, true, math.MaxUint64
	odd.Metrics = RunMetrics{Supersteps: -1, ComputeCalls: math.MinInt64, ScatterCalls: math.MaxInt64, MakespanNS: -7}
	type pair struct{ A, B int64 }
	ids := []tgraph.VertexID{-5, math.MinInt64, 1, math.MaxInt64}
	sts := []*core.PartitionedState{
		state(t, ival.New(-7, 3), ""),
		state(t, ival.From(math.MinInt64), math.NaN(), warp.IntervalValue{Interval: ival.From(3), Value: "aé\U0001F600<>\"\\\x00\u2028\xff"}),
		state(t, ival.New(0, 5), pair{1, -2}, warp.IntervalValue{Interval: ival.New(2, 5), Value: []int64{1, 2}}),
		state(t, ival.From(0), true, warp.IntervalValue{Interval: ival.From(5), Value: 1e21}),
	}
	odd.Vertices = renderVertices(byID(ids, sts))
	checkBody(t, "odd strings and numbers", renderRun(odd), &decodedRun{RunResult: *odd, Vertices: oldVertices(ids, sts)})
	none := syntheticResult(t, 0)
	checkRun(t, "nil vertices", none)
	if err := none.Vertices.UnmarshalJSON([]byte("[]")); err != nil {
		t.Fatal(err)
	}
	checkRun(t, "a client's empty vertices", none)
	checkRun(t, "a body of many flushes", syntheticResult(t, 3000))

	jobs := []JobView{
		{ID: "j1", Status: JobDone, Graph: "g", Algorithm: "sssp", Fingerprint: res.Fingerprint, Result: res},
		{ID: "j2", Status: JobFailed, Graph: "g", Algorithm: "pr", Fingerprint: "ff", Error: `run failed: "x" < y & z`},
		{ID: "j3", Status: JobPending, Graph: "g<", Algorithm: "eat", Fingerprint: "", Result: none},
	}
	jv, err := s.Submit(&RunRequest{Graph: "g", Algorithm: "bfs", Async: true, Params: map[string]int64{"source": int64(src)}})
	if err != nil || jv.Result == nil {
		t.Fatalf("submit of a cached request: %+v, %v", jv, err)
	}
	for _, jv := range append(jobs, jv) {
		checkBody(t, "job "+jv.ID, renderJob(&jv), decodeJob(t, &jv))
	}
}

// TestRunBodyHead pins what clients read from the head of a /v1/run body
// without decoding the rest. The benchmark client (benchmark/workload.go,
// cachedTrue/cachedFalse/seededTrue and runMetricsOf) and anything written
// like it match `"cached": <bool>`, `"seeded": true` and `"metrics": {` by
// their bytes in the first KiB. Cached, uncached, seeded and live-epoch
// bodies all carry them there.
func TestRunBodyHead(t *testing.T) {
	_, _, lts := newLiveServer(t, live.Options{Name: "g"})
	if code := postEvents(t, lts, "g", chainEvents(0, 10, 1), nil); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", code)
	}
	_, sts := newTestServer(t, Config{})
	eat := func(end int64) RunRequest {
		return RunRequest{Graph: "g", Algorithm: "eat", Params: map[string]int64{"source": 0}, Window: &Window{0, end}}
	}
	sssp := RunRequest{Graph: "transit", Algorithm: "sssp", Params: map[string]int64{"source": 1}}
	for _, c := range []struct {
		name           string
		ts             *httptest.Server
		req            RunRequest
		cached, seeded bool
	}{
		{"static", sts, sssp, false, false},
		{"static cached", sts, sssp, true, false},
		{"live epoch", lts, eat(6), false, false},
		{"live epoch cached", lts, eat(6), true, false},
		{"seeded", lts, eat(50), false, true},
	} {
		reqBody, _ := json.Marshal(c.req)
		resp, err := http.Post(c.ts.URL+"/v1/run", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v", c.name, resp.StatusCode, err)
		}
		var res RunResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		head := body[:min(len(body), 1024)]
		for _, want := range []string{`"cached": ` + strconv.FormatBool(c.cached), `"metrics": {`} {
			if !bytes.Contains(head, []byte(want)) {
				t.Errorf("%s: %s is not in the first KiB: %.300s", c.name, want, head)
			}
		}
		if got := bytes.Contains(head, []byte(`"seeded": true`)); got != c.seeded || res.Seeded != c.seeded {
			t.Errorf("%s: \"seeded\": true in the head %v, decoded %v; want %v", c.name, got, res.Seeded, c.seeded)
		}
		if (res.Epoch != 0) != (c.ts == lts) {
			t.Errorf("%s: epoch %d", c.name, res.Epoch)
		}
		// The metrics object runs from its key to the first '}' after it.
		obj := head[bytes.Index(head, []byte(`"metrics": `))+len(`"metrics": `):]
		var m RunMetrics
		if err := json.Unmarshal(obj[:bytes.IndexByte(obj, '}')+1], &m); err != nil || m != res.Metrics {
			t.Errorf("%s: the head's metrics object reads %+v (%v), the body's %+v", c.name, m, err, res.Metrics)
		}
	}
}

// TestRenderStreams: a body goes out as its head alone, under 1 KiB; then
// each chunk as it is, in one write — every chunk but the last at least
// renderFlush and at most renderFlush plus one vertex, ending at a vertex;
// then the tail. The first failed write is the last; a buffer one giant
// vertex grew is not pooled.
func TestRenderStreams(t *testing.T) {
	res := syntheticResult(t, 20000)
	rec := &recordingResponse{ResponseWriter: httptest.NewRecorder()}
	writeRun(rec, http.StatusOK, res)
	chunks, writes := res.Vertices.chunks, rec.writes
	if len(chunks) < 2 || len(writes) != len(chunks)+2 {
		t.Fatalf("%d chunks went out in %d writes; want the head, one write per chunk, the tail", len(chunks), len(writes))
	}
	if head := writes[0]; len(head) >= 1024 || !bytes.HasSuffix(head, []byte(`"vertices": `)) {
		t.Fatalf("the head is a %d-byte write ending %.40q", len(head), head[max(0, len(head)-40):])
	}
	for i, c := range chunks {
		if rec.from[i+1] != &c[0] || !bytes.Equal(writes[i+1], c) {
			t.Fatalf("write %d is not chunk %d as it is", i+1, i)
		}
		if n := len(c); i < len(chunks)-1 && (n < renderFlush || n > renderFlush+1024 || c[n-1] != '}') {
			t.Fatalf("chunk %d of %d is %d bytes ending %q", i, len(chunks), n, c[n-1])
		}
	}
	if tail := writes[len(writes)-1]; string(tail) != "}\n" {
		t.Fatalf("the tail is %q", tail)
	}

	failing := &failingResponse{ResponseWriter: httptest.NewRecorder()}
	writeRun(failing, http.StatusOK, res)
	if failing.writes != 1 {
		t.Errorf("the render went on after a failed write: %d writes", failing.writes)
	}

	parts := make([]warp.IntervalValue, renderKeep/32) // ~40 bytes a part
	for k := range parts {
		parts[k] = warp.IntervalValue{Interval: ival.From(int64(k + 1)), Value: int64(k % 2)}
	}
	giant := syntheticResult(t, 0)
	giant.Vertices = renderVertices(byID([]tgraph.VertexID{7}, []*core.PartitionedState{state(t, ival.From(0), int64(1), parts...)}))
	if n := len(giant.Vertices.chunks[0]); n <= renderKeep {
		t.Fatalf("the giant vertex is %d bytes, no more than renderKeep", n)
	}
	checkRun(t, "one giant vertex", giant)
	d := newDiscard()
	for range 10 {
		writeRun(d, http.StatusOK, giant)
		r := renderers.Get().(*renderer)
		renderers.Put(r)
		if cap(r.buf) > renderKeep {
			t.Fatalf("a %d-byte buffer went back to the pool", cap(r.buf))
		}
	}
}

// recordingResponse records a copy of every write and where its bytes were.
type recordingResponse struct {
	http.ResponseWriter
	writes [][]byte
	from   []*byte
}

func (r *recordingResponse) Write(p []byte) (int, error) {
	r.writes, r.from = append(r.writes, bytes.Clone(p)), append(r.from, &p[0])
	return r.ResponseWriter.Write(p)
}

// TestRunBodyWritesOverLoopback: a cached 20 000-vertex result served over a
// loopback connection costs its server at most 16 conn writes per MiB of
// body — about two per chunk; 16 KiB chunks take about 128.
func TestRunBodyWritesOverLoopback(t *testing.T) {
	res := syntheticResult(t, 20000)
	lb := newLoopback(t, res)
	var body bytes.Buffer
	lb.get(t, &body)
	if !bytes.Equal(body.Bytes(), renderRun(res)) {
		t.Fatal("the body over loopback differs from the rendered body")
	}
	writes, reads := lb.server.writes.Load(), lb.client.reads.Load()
	perMiB := float64(writes) * (1 << 20) / float64(body.Len())
	t.Logf("a %d-byte body in %d chunks: %d server writes (%.1f per MiB), %d client reads",
		body.Len(), len(res.Vertices.chunks), writes, perMiB, reads)
	if perMiB > 16 {
		t.Errorf("%d server writes for a %d-byte body: %.1f per MiB, want at most 16", writes, body.Len(), perMiB)
	}
}

// connCounts counts the writes and reads made on conns.
type connCounts struct{ writes, reads atomic.Int64 }

// countingConn counts each call before it makes it, so a count read once the
// peer has the bytes includes the write that sent them.
type countingConn struct {
	net.Conn
	n *connCounts
}

func (c countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(p)
}

func (c countingConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(p)
}

type countingListener struct {
	net.Listener
	n *connCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

// loopback serves one result, as a cache hit writes it, from a loopback
// server to one keep-alive client, counting the server's conn writes and the
// client's conn reads from the second request on: the first dials the conn.
type loopback struct {
	url            string
	http           *http.Client
	server, client connCounts
}

func newLoopback(tb testing.TB, res *RunResult) *loopback {
	lb := &loopback{}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeRun(w, http.StatusOK, res)
	}))
	ts.Listener = countingListener{ts.Listener, &lb.server}
	ts.Start()
	tb.Cleanup(ts.Close)
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{c, &lb.client}, nil
	}}
	tb.Cleanup(tr.CloseIdleConnections)
	lb.url, lb.http = ts.URL, &http.Client{Transport: tr}
	lb.get(tb, io.Discard)
	lb.server.writes.Store(0)
	lb.client.reads.Store(0)
	return lb
}

// get reads the body into w.
func (lb *loopback) get(tb testing.TB, w io.Writer) {
	resp, err := lb.http.Get(lb.url)
	if err != nil {
		tb.Fatal(err)
	}
	_, err = io.Copy(w, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("HTTP %d, %v", resp.StatusCode, err)
	}
}

// failingResponse is a client that went away: every write fails.
type failingResponse struct {
	http.ResponseWriter
	writes int
}

func (f *failingResponse) Write([]byte) (int, error) {
	f.writes++
	return 0, errors.New("connection reset")
}

// TestRenderConcurrentWriters has goroutines share the renderer pool, each
// with bodies of its own sizes, rendering vertices and writing bodies; `make
// race` runs it under the detector. No body may carry another's bytes.
func TestRenderConcurrentWriters(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		states := make([]iter.Seq2[*tgraph.Vertex, *core.PartitionedState], 10)
		for i := range states {
			states[i] = syntheticStates(t, (w*370+i*110)%1500)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, st := range states {
				res := &RunResult{Graph: strconv.Itoa(w), Vertices: renderVertices(st)}
				var got bytes.Buffer
				if err := json.Indent(&got, renderRun(res), "", "  "); err != nil || got.String() != wantJSON(t, decodeRun(t, res)) {
					t.Errorf("writer %d body %d differs from the encoder's (%v)", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRenderAllocations: writing a cached result allocates a fixed number of
// objects whatever its size — the Content-Type header value, nothing per
// vertex, part or write; rendering its vertices allocates one object per
// chunk and a few more, nothing per vertex or part.
func TestRenderAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	small, large := syntheticResult(t, 100), syntheticResult(t, 20000)
	d := newDiscard()
	allocs := func(res *RunResult) float64 {
		return testing.AllocsPerRun(50, func() { writeRun(d, http.StatusOK, res) })
	}
	a, b := allocs(small), allocs(large)
	if a != b || a > 1 {
		t.Errorf("writing 100 vertices allocates %.0f objects, 20 000 vertices %.0f; want the same, at most 1", a, b)
	}
	const few = 16 // the chunk list growing to 16, and the iterator
	states := syntheticStates(t, 20000)
	build := testing.AllocsPerRun(10, func() { renderVertices(states) })
	if chunks := len(large.Vertices.chunks); build > float64(chunks+few) {
		t.Errorf("rendering 20 000 vertices into %d chunks allocates %.0f objects; want at most %d", chunks, build, chunks+few)
	}
}

// FuzzRenderString: arbitrary bytes as a graph name, a window and two state
// values are quoted exactly as encoding/json quotes them, alone and inside a
// body, and the values come back from the rendered vertices.
func FuzzRenderString(f *testing.F) {
	f.Add("transit", "[3, ∞)", "42")
	f.Add("<script>&amp;", "\u2028\u2029", "\x00\x01\x1f\x7f")
	f.Add("\"\\/", "\b\f\n\r\t", "\xff\xfe\xc3\x28")
	f.Add("\xed\xa0\x80", "\xf4\x90\x80\x80", "é日本\U0001F600")
	f.Fuzz(func(t *testing.T, graph, interval, value string) {
		var back [3]string
		for i, s := range []string{graph, interval, value} {
			want, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendString(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("%q quotes as %s, encoding/json as %s", s, got, want)
			}
			if err := json.Unmarshal(want, &back[i]); err != nil {
				t.Fatal(err)
			}
		}
		ids := []tgraph.VertexID{1, 2}
		sts := []*core.PartitionedState{state(t, ival.New(1, 2), interval), state(t, ival.From(3), value)}
		res := &RunResult{Graph: graph, Window: interval, Vertices: renderVertices(byID(ids, sts))}
		var indented bytes.Buffer
		if err := json.Indent(&indented, renderRun(res), "", "  "); err != nil ||
			indented.String() != wantJSON(t, &decodedRun{RunResult: *res, Vertices: oldVertices(ids, sts)}) {
			t.Fatalf("the body of %q, %q, %q does not indent to the encoder's (%v)", graph, interval, value, err)
		}
		raw, err := res.Vertices.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var client Vertices
		if err := client.UnmarshalJSON(raw); err != nil {
			t.Fatal(err)
		}
		want := []VertexResult{{1, []StatePart{{"[1, 2)", back[1]}}}, {2, []StatePart{{"[3, ∞)", back[2]}}}}
		if got, err := client.Decode(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("the vertices of %q, %q decode to %q (%v)", interval, value, got, err)
		}
	})
}

// BenchmarkRenderRun renders a finished TwitterLike(1) SSSP run's vertices
// into chunks (build), writes the cached result to a discarding response
// (hit) and from a loopback server to a net/http client (loopback), and
// writes it with the indenting encoder render.go replaced (encoder), after
// checking that the body indents to the encoder's. Reported: ns/op,
// allocations and the body's bytes; over loopback, the server's conn writes
// and the client's conn reads per hit, which a discarding response hides.
func BenchmarkRenderRun(b *testing.B) {
	g, err := gen.Generate(gen.TwitterLike(1), 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, opts, err := algorithms.New(g, "sssp", algorithms.Params{Source: g.Edge(0).Src})
	if err != nil {
		b.Fatal(err)
	}
	opts.NumWorkers = 2
	run, err := core.Run(g, prog, opts)
	if err != nil {
		b.Fatal(err)
	}
	res := &RunResult{Graph: "twitter", Algorithm: "sssp", Vertices: renderVertices(run.ByID())}
	old := decodeRun(b, res)
	var want, got bytes.Buffer
	if err := encodeIndented(&want, old); err != nil {
		b.Fatal(err)
	}
	if err := json.Indent(&got, renderRun(res), "", "  "); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
		b.Fatalf("the body does not indent to the encoder's (%v)", err)
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			renderVertices(run.ByID())
		}
		b.ReportMetric(float64(len(res.Vertices.chunks)), "chunks")
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		d := newDiscard()
		for i := 0; i < b.N; i++ {
			d.n = 0
			writeRun(d, http.StatusOK, res)
		}
		b.ReportMetric(float64(d.n), "body_bytes")
	})
	b.Run("loopback", func(b *testing.B) {
		lb := newLoopback(b, res)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lb.get(b, io.Discard)
		}
		b.ReportMetric(float64(lb.server.writes.Load())/float64(b.N), "server_writes")
		b.ReportMetric(float64(lb.client.reads.Load())/float64(b.N), "client_reads")
	})
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		d := newDiscard()
		for i := 0; i < b.N; i++ {
			d.n = 0
			if err := encodeIndented(d, old); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(d.n), "body_bytes")
	})
}
