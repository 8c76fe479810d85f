package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/gen"
	ival "graphite/internal/interval"
	"graphite/internal/live"
	"graphite/internal/tgraph"
)

// The oracle of render.go is the encoder it replaced: a json.Encoder with
// SetIndent("", "  "), which wrote json.MarshalIndent's bytes and a newline
// (wantJSON). Every body render.go writes must indent to exactly those bytes.

// encodeIndented writes v as every /v1/run and /v1/jobs/{id} body was
// written before render.go.
func encodeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
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

// syntheticResult is a result of n vertices of two parts each, the second
// one unbounded.
func syntheticResult(n int) *RunResult {
	res := &RunResult{Graph: "twitter", Algorithm: "sssp", Fingerprint: "f00d", Window: "[0,inf)", Span: "0123456789abcdef",
		Metrics: RunMetrics{Supersteps: 7, ComputeCalls: int64(n), Messages: 3 * int64(n)}}
	for i := 0; i < n; i++ {
		res.Vertices = append(res.Vertices, VertexResult{ID: int64(3 * i), Parts: []StatePart{
			{Interval: ival.New(0, int64(i+1)).String(), Value: "9223372036854775807"},
			{Interval: ival.From(int64(i + 1)).String(), Value: strconv.Itoa(i)},
		}})
	}
	return res
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
	check := func(name string, res *RunResult) {
		t.Helper()
		checkBody(t, name, renderRun(res), res)
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
			check(fmt.Sprintf("%s over %v", algo, w), exec(last))
		}
	}
	if res := exec(last); !res.Cached {
		t.Fatal("a repeated request was not served from the cache")
	} else {
		check("cached", res)
	}
	src := earlySource(t, built, h/8)
	for _, end := range []int64{h / 4, h / 2} {
		res := exec(&RunRequest{Graph: "g", Algorithm: "eat", Params: map[string]int64{"source": int64(src)}, Window: &Window{0, end}})
		if res.Seeded != (end == h/2) {
			t.Fatalf("eat over [0, %d): seeded = %v", end, res.Seeded)
		}
		check(fmt.Sprintf("eat over [0, %d)", end), res)
	}
	res := exec(&RunRequest{Graph: "g", Algorithm: "bfs", Span: "0123456789abcdef", Params: map[string]int64{"source": int64(src)}})
	if res.Span != "0123456789abcdef" {
		t.Fatalf("span %q, want the client's", res.Span)
	}
	check("client span", res)

	ls, _, _ := newLiveServer(t, live.Options{Name: "g"})
	if _, err := ls.ApplyEvents("g", chainEvents(0, 8, 1)); err != nil {
		t.Fatal(err)
	}
	lres, err := ls.Execute(ctx, &RunRequest{Graph: "g", Algorithm: "eat", Params: map[string]int64{"source": 0}})
	if err != nil || lres.Epoch != 1 {
		t.Fatalf("live run: epoch %v, %v", lres, err)
	}
	check("live epoch", lres)

	odd := syntheticResult(3)
	odd.Graph, odd.Algorithm, odd.Fingerprint, odd.Span = "q\"b\\s</script>&\u2028\u2029\x00\x1f\x7f\b\f\n\r\t", "", "∞\xff\xc3", ""
	odd.Cached, odd.Seeded, odd.Epoch = true, true, math.MaxUint64
	odd.Metrics = RunMetrics{Supersteps: -1, ComputeCalls: math.MinInt64, ScatterCalls: math.MaxInt64, MakespanNS: -7}
	odd.Vertices = append(odd.Vertices, VertexResult{ID: -5}, VertexResult{ID: math.MinInt64, Parts: []StatePart{}},
		VertexResult{ID: 1, Parts: []StatePart{{}, {Interval: "[3, ∞)", Value: "aé\U0001F600<>"}}})
	check("odd strings and numbers", odd)
	none := syntheticResult(0)
	check("nil vertices", none)
	none.Vertices = []VertexResult{}
	check("empty vertices", none)
	check("a body of many flushes", syntheticResult(3000))

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
		checkBody(t, "job "+jv.ID, renderJob(&jv), &jv)
	}
}

// TestRunBodyHead pins what clients read from the head of a /v1/run body
// without decoding the rest. The benchmark client (benchmark/workload.go,
// cachedTrue/cachedFalse/seededTrue and runMetricsOf) and anything written
// like it match `"cached": <bool>`, `"seeded": true` and `"metrics": {` by
// their bytes in the first KiB; loadgen decodes the body. Cached, uncached,
// seeded and live-epoch bodies all carry them there.
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

// TestRenderStreams: a body goes out in writes of at least renderFlush bytes,
// each ending at a vertex, never in one piece; the first failed write is the
// last; a buffer one giant vertex grew is not pooled.
func TestRenderStreams(t *testing.T) {
	res := syntheticResult(20000)
	var sizes []int
	w := &recordingResponse{ResponseWriter: httptest.NewRecorder(), sizes: &sizes}
	writeRun(w, http.StatusOK, res)
	body := w.ResponseWriter.(*httptest.ResponseRecorder).Body.Bytes()
	if len(sizes) < len(body)/(renderFlush+1024) {
		t.Fatalf("a %d-byte body went out in %d writes", len(body), len(sizes))
	}
	at := 0
	for i, n := range sizes {
		if i < len(sizes)-1 && (n < renderFlush || n > renderFlush+1024 || body[at+n-1] != '}') {
			t.Fatalf("write %d of %d is %d bytes ending %q", i, len(sizes), n, body[at+n-1])
		}
		at += n
	}

	failing := &failingResponse{ResponseWriter: httptest.NewRecorder()}
	writeRun(failing, http.StatusOK, res)
	if failing.writes != 1 {
		t.Errorf("the render went on after a failed write: %d writes", failing.writes)
	}

	giant := syntheticResult(1)
	giant.Vertices[0].Parts = syntheticResult(3000).Vertices[0].Parts[:1]
	for range 3000 {
		giant.Vertices[0].Parts = append(giant.Vertices[0].Parts, giant.Vertices[0].Parts[0])
	}
	checkBody(t, "one giant vertex", renderRun(giant), giant)
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

// recordingResponse records the size of every write.
type recordingResponse struct {
	http.ResponseWriter
	sizes *[]int
}

func (r *recordingResponse) Write(p []byte) (int, error) {
	*r.sizes = append(*r.sizes, len(p))
	return r.ResponseWriter.Write(p)
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
// with bodies of its own sizes; `make race` runs it under the detector. No
// body may carry another's bytes.
func TestRenderConcurrentWriters(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res := syntheticResult((w*370 + i*110) % 1500)
				res.Graph = strconv.Itoa(w)
				var got bytes.Buffer
				if err := json.Indent(&got, renderRun(res), "", "  "); err != nil || got.String() != wantJSON(t, res) {
					t.Errorf("writer %d body %d differs from the encoder's (%v)", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRenderAllocations: the render allocates a fixed number of objects
// whatever the result's size — the Content-Type header value, nothing per
// vertex, part or flush.
func TestRenderAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gate skipped under -race")
	}
	small, large := syntheticResult(100), syntheticResult(20000)
	d := newDiscard()
	allocs := func(res *RunResult) float64 {
		return testing.AllocsPerRun(50, func() { writeRun(d, http.StatusOK, res) })
	}
	a, b := allocs(small), allocs(large)
	if a != b || a > 1 {
		t.Errorf("rendering 100 vertices allocates %.0f objects, 20 000 vertices %.0f; want the same, at most 1", a, b)
	}
}

// FuzzRenderString: arbitrary bytes as a graph name, an interval and a value
// are quoted exactly as encoding/json quotes them, alone and inside a body.
func FuzzRenderString(f *testing.F) {
	f.Add("transit", "[3, ∞)", "42")
	f.Add("<script>&amp;", "\u2028\u2029", "\x00\x01\x1f\x7f")
	f.Add("\"\\/", "\b\f\n\r\t", "\xff\xfe\xc3\x28")
	f.Add("\xed\xa0\x80", "\xf4\x90\x80\x80", "é日本\U0001F600")
	f.Fuzz(func(t *testing.T, graph, interval, value string) {
		for _, s := range []string{graph, interval, value} {
			want, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendString(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("%q quotes as %s, encoding/json as %s", s, got, want)
			}
		}
		res := &RunResult{Graph: graph, Window: interval, Vertices: []VertexResult{{ID: 1, Parts: []StatePart{{interval, value}}}}}
		var indented bytes.Buffer
		if err := json.Indent(&indented, renderRun(res), "", "  "); err != nil || indented.String() != wantJSON(t, res) {
			t.Fatalf("the body of %q, %q, %q does not indent to the encoder's (%v)", graph, interval, value, err)
		}
	})
}

// BenchmarkRenderRun writes a served TwitterLike(1) SSSP result to a
// discarding response, with render.go's appender and with the indenting
// encoder it replaced, after checking that the appender's body indents to
// the encoder's. Reported: ns/op and the body's bytes.
func BenchmarkRenderRun(b *testing.B) {
	g, err := gen.Generate(gen.TwitterLike(1), 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Graphs: map[string]*tgraph.Graph{"twitter": g}, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute(context.Background(), &RunRequest{Graph: "twitter", Algorithm: "sssp",
		Params: map[string]int64{"source": int64(g.Edge(0).Src)}})
	if err != nil {
		b.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := encodeIndented(&want, res); err != nil {
		b.Fatal(err)
	}
	if err := json.Indent(&got, renderRun(res), "", "  "); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
		b.Fatalf("the appender's body does not indent to the encoder's (%v)", err)
	}
	b.Run("appender", func(b *testing.B) {
		b.ReportAllocs()
		d := newDiscard()
		for i := 0; i < b.N; i++ {
			d.n = 0
			writeRun(d, http.StatusOK, res)
		}
		b.ReportMetric(float64(d.n), "body_bytes")
	})
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		d := newDiscard()
		for i := 0; i < b.N; i++ {
			d.n = 0
			if err := encodeIndented(d, res); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(d.n), "body_bytes")
	})
}
