package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/gen"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// newTestServer boots a Server over the transit example plus an httptest
// frontend, torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*tgraph.Graph{"transit": tgraph.TransitExample()}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

// postRun POSTs a run request and decodes the response into out (which may be
// nil to discard), returning the HTTP status.
func postRun(t *testing.T, ts *httptest.Server, req RunRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var jv JobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return jv
}

// waitJob polls a job until pred holds or the timeout expires.
func waitJob(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, pred func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		jv := getJob(t, ts, id)
		if pred(jv) {
			return jv
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach expected state in %v (status %q)", id, timeout, jv.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServedRunsShareTheRegistry: every BSP run publishes its engine counters
// into the server's registry, which /metrics serves, and concurrent runs
// sharing it still report the metrics each reports alone.
func TestServedRunsShareTheRegistry(t *testing.T) {
	reqs := []RunRequest{
		{Graph: "transit", Algorithm: "pr", Params: map[string]int64{"iterations": 200}, NoCache: true},
		{Graph: "transit", Algorithm: "sssp", Params: map[string]int64{"source": 1}, NoCache: true},
	}
	run := func(ts *httptest.Server, req RunRequest) RunMetrics {
		var res RunResult
		if code := postRun(t, ts, req, &res); code != http.StatusOK {
			t.Errorf("%s: HTTP %d", req.Algorithm, code)
		}
		res.Metrics.MakespanNS = 0
		return res.Metrics
	}
	_, solo := newTestServer(t, Config{})
	want := make([]RunMetrics, len(reqs))
	for i, req := range reqs {
		want[i] = run(solo, req)
	}

	s, ts := newTestServer(t, Config{})
	got := make([]RunMetrics, 4*len(reqs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(ts, reqs[i%len(reqs)])
		}()
	}
	wg.Wait()
	var steps int64
	for i, m := range got {
		if w := want[i%len(reqs)]; m != w {
			t.Errorf("%s beside other runs: %+v, alone %+v", reqs[i%len(reqs)].Algorithm, m, w)
		}
		steps += int64(m.Supersteps)
	}
	if n := s.Registry().Counter(obs.CSupersteps).Load(); n != steps {
		t.Errorf("server registry counted %d supersteps, the runs %d", n, steps)
	}
}

// TestConcurrentIdenticalRequestsExecuteOnce is the singleflight and result
// cache pin: each distinct request of a row is fired n times at once, then
// once more each in sequence. Every distinct request executes exactly once;
// every other request joins the in-flight run or hits the result cache; the
// sequential confirm pass is all hits; and /metrics shows the hits.
func TestConcurrentIdenticalRequestsExecuteOnce(t *testing.T) {
	src := map[string]int64{"source": 1}
	for _, tc := range []struct {
		name string
		n    int
		reqs []RunRequest
	}{
		{"identical", 32, []RunRequest{
			{Graph: "transit", Algorithm: "pr", Params: map[string]int64{"iterations": 500}},
		}},
		{"mixed", 8, []RunRequest{
			{Graph: "transit", Algorithm: "bfs", Params: src},
			{Graph: "transit", Algorithm: "sssp", Params: src},
			{Graph: "transit", Algorithm: "eat", Params: src},
			{Graph: "transit", Algorithm: "pr", Params: map[string]int64{"iterations": 5}},
			{Graph: "transit", Algorithm: "tmst", Params: src},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			burst := tc.n * len(tc.reqs)
			var wg sync.WaitGroup
			start := make(chan struct{})
			codes := make([]int, burst)
			for i := range codes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					codes[i] = postRun(t, ts, tc.reqs[i%len(tc.reqs)], nil)
				}()
			}
			close(start)
			wg.Wait()
			for i, code := range codes {
				if code != http.StatusOK {
					t.Fatalf("request %d (%s): HTTP %d", i, tc.reqs[i%len(tc.reqs)].Algorithm, code)
				}
			}
			for _, req := range tc.reqs {
				var res RunResult
				if code := postRun(t, ts, req, &res); code != http.StatusOK || !res.Cached {
					t.Errorf("confirm %s: HTTP %d, cached %v; want 200 from the cache", req.Algorithm, code, res.Cached)
				}
			}

			reg := s.Registry()
			distinct := int64(len(tc.reqs))
			total := int64(burst) + distinct
			executed := reg.Counter(CRunsExecuted).Load()
			hits := reg.Counter(CCacheHits).Load()
			dedup := reg.Counter(CFlightDedup).Load()
			if executed != distinct {
				t.Errorf("runs executed: got %d, want %d (one per distinct request)", executed, distinct)
			}
			if got := reg.Counter(CCacheMisses).Load(); got != distinct {
				t.Errorf("cache misses: got %d, want %d", got, distinct)
			}
			if hits+dedup != total-executed {
				t.Errorf("hits(%d)+dedup(%d) = %d, want requests(%d)-executed(%d)", hits, dedup, hits+dedup, total, executed)
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatalf("GET /metrics: %v", err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("read /metrics: %v", err)
			}
			if line := fmt.Sprintf("\n%s %d\n", obs.PromName(CCacheHits, "counter"), hits); hits < distinct || !strings.Contains(string(body), line) {
				t.Errorf("/metrics: want the line %q, with at least the confirm pass's %d hits", line[1:len(line)-1], distinct)
			}
		})
	}
}

// TestQueueFullRejects pins admission control: with one executor slot and one
// queue slot occupied by distinct long runs, the next request is rejected with
// 429 immediately, and the rejection is counted.
func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	long := func(iters int64) RunRequest {
		return RunRequest{
			Graph:     "transit",
			Algorithm: "pr",
			Params:    map[string]int64{"iterations": iters},
			Async:     true,
		}
	}
	// Distinct iteration counts → distinct fingerprints → both are leaders
	// holding tickets (one running, one queued).
	j1, err := s.Submit(&RunRequest{Graph: "transit", Algorithm: "pr",
		Params: map[string]int64{"iterations": 2_000_000}, Async: true})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	j2, err := s.Submit(&RunRequest{Graph: "transit", Algorithm: "pr",
		Params: map[string]int64{"iterations": 2_000_001}, Async: true})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	var errBody map[string]any
	if code := postRun(t, ts, long(2_000_002).withSync(), &errBody); code != http.StatusTooManyRequests {
		t.Fatalf("third request: HTTP %d (%v), want 429", code, errBody)
	}
	if got := s.Registry().Counter(CRejectedBusy).Load(); got < 1 {
		t.Fatalf("rejected.busy: got %d, want >= 1", got)
	}
	// An identical duplicate of a queued run still joins in-flight instead of
	// being rejected: dedup must not consume tickets.
	dup, err := s.Submit(&RunRequest{Graph: "transit", Algorithm: "pr",
		Params: map[string]int64{"iterations": 2_000_001}, Async: true})
	if err != nil {
		t.Fatalf("duplicate submit should join in flight, got %v", err)
	}
	// Hard stop; the long runs abort at their next barrier and every job
	// reaches a terminal state.
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, id := range []string{j1.ID, j2.ID, dup.ID} {
		waitJob(t, ts, id, 10*time.Second, func(jv JobView) bool {
			return jv.Status == JobCanceled || jv.Status == JobFailed
		})
	}
}

// withSync strips the Async flag for reuse in sync posts.
func (r RunRequest) withSync() RunRequest { r.Async = false; return r }

// getCode issues a GET and returns only the HTTP status.
func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestGracefulDrain pins shutdown semantics: Drain lets the in-flight run
// finish (the job completes with a result), while new work is rejected with
// 503, readiness flips to draining, and liveness stays green so the process
// isn't killed out from under its in-flight work.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	jv, err := s.Submit(&RunRequest{Graph: "transit", Algorithm: "pr",
		Params: map[string]int64{"iterations": 5000}, Async: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, ts, jv.ID, 5*time.Second, func(j JobView) bool { return j.Status != JobPending })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Draining flips synchronously under the admission lock; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	if code := postRun(t, ts, RunRequest{Graph: "transit", Algorithm: "sssp",
		Params: map[string]int64{"source": 1}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: HTTP %d, want 503", code)
	}
	if code := getCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain: HTTP %d, want 200 (liveness must survive a drain)", code)
	}
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: HTTP %d, want 503", code)
	}

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete")
	}
	// The in-flight job was allowed to finish, not canceled.
	final := waitJob(t, ts, jv.ID, 5*time.Second, func(j JobView) bool { return j.Status == JobDone })
	if final.Result == nil {
		t.Fatal("drained job has no result")
	}
	if got := s.Registry().Counter(CRunsCanceled).Load(); got != 0 {
		t.Fatalf("runs canceled during graceful drain: %d, want 0", got)
	}
}

// TestServedResultMatchesCLI pins bit-identical rendering: the served result,
// reconstructed through FormatLines, must equal FormatResult over a direct
// core.Run with the same parameters — the exact lines cmd/graphite-run prints.
func TestServedResultMatchesCLI(t *testing.T) {
	g := tgraph.TransitExample()
	_, ts := newTestServer(t, Config{Graphs: map[string]*tgraph.Graph{"transit": g}})

	for _, algo := range []string{"sssp", "eat", "bfs"} {
		var res RunResult
		if code := postRun(t, ts, RunRequest{Graph: "transit", Algorithm: algo,
			Params: map[string]int64{"source": 1}}, &res); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", algo, code)
		}
		prog, opts, err := algorithms.New(g, algo, algorithms.Params{Source: 1, Target: 1})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		r, err := core.Run(g, prog, opts)
		if err != nil {
			t.Fatalf("%s: direct run: %v", algo, err)
		}
		want := FormatResult(r, 10)
		got := res.FormatLines(10)
		if len(got) != len(want) {
			t.Fatalf("%s: %d lines served vs %d direct", algo, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s line %d:\nserved %q\ndirect %q", algo, i, got[i], want[i])
			}
		}
	}
}

// TestRequestDeadlineCancels pins cooperative cancellation end to end: a run
// that cannot finish inside its deadline comes back 504 and is counted as
// canceled, not failed.
func TestRequestDeadlineCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var errBody map[string]any
	code := postRun(t, ts, RunRequest{
		Graph:     "transit",
		Algorithm: "pr",
		Params:    map[string]int64{"iterations": 5_000_000},
		TimeoutMS: 50,
	}, &errBody)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline run: HTTP %d (%v), want 504", code, errBody)
	}
	reg := s.Registry()
	if got := reg.Counter(CRunsCanceled).Load(); got != 1 {
		t.Fatalf("runs canceled: got %d, want 1", got)
	}
	if got := reg.Counter(CRunsFailed).Load(); got != 0 {
		t.Fatalf("runs failed: got %d, want 0", got)
	}
}

// TestJobLifecycle pins the async path: submit returns 202 with a pending or
// running job, polling converges to done with a result identical to the sync
// answer, and DELETE cancels a running job at its next barrier.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var sync RunResult
	if code := postRun(t, ts, RunRequest{Graph: "transit", Algorithm: "sssp",
		Params: map[string]int64{"source": 1}}, &sync); code != http.StatusOK {
		t.Fatalf("sync run: HTTP %d", code)
	}

	var jv JobView
	if code := postRun(t, ts, RunRequest{Graph: "transit", Algorithm: "sssp",
		Params: map[string]int64{"source": 1}, Async: true, NoCache: true}, &jv); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	done := waitJob(t, ts, jv.ID, 10*time.Second, func(j JobView) bool { return terminal(j.Status) })
	if done.Status != JobDone || done.Result == nil {
		t.Fatalf("job finished %q (err %q), want done with result", done.Status, done.Error)
	}
	if got, want := fmt.Sprint(done.Result.FormatLines(0)), fmt.Sprint(sync.FormatLines(0)); got != want {
		t.Fatalf("async result diverged from sync:\nasync %s\nsync  %s", got, want)
	}

	// Cancel a long-running job via DELETE.
	if code := postRun(t, ts, RunRequest{Graph: "transit", Algorithm: "pr",
		Params: map[string]int64{"iterations": 5_000_000}, Async: true}, &jv); code != http.StatusAccepted {
		t.Fatalf("submit long: HTTP %d", code)
	}
	waitJob(t, ts, jv.ID, 5*time.Second, func(j JobView) bool { return j.Status == JobRunning })
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+jv.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	canceled := waitJob(t, ts, jv.ID, 10*time.Second, func(j JobView) bool { return terminal(j.Status) })
	if canceled.Status != JobCanceled {
		t.Fatalf("deleted job finished %q (err %q), want canceled", canceled.Status, canceled.Error)
	}

	// Unknown job id is a 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestRequestValidation pins the 4xx surface.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown graph", `{"graph":"nope","algorithm":"sssp"}`, http.StatusNotFound},
		{"unknown algorithm", `{"graph":"transit","algorithm":"dijkstra"}`, http.StatusBadRequest},
		{"unknown field", `{"graph":"transit","algorithm":"sssp","frobnicate":1}`, http.StatusBadRequest},
		{"unknown param", `{"graph":"transit","algorithm":"sssp","params":{"sources":1}}`, http.StatusBadRequest},
		{"negative window", `{"graph":"transit","algorithm":"sssp","window":{"start":-2}}`, http.StatusBadRequest},
		{"missing source vertex", `{"graph":"transit","algorithm":"sssp","params":{"source":99}}`, http.StatusBadRequest},
		{"malformed json", `{"graph":`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestWindowedRun pins window slicing through the API: a bounded window runs
// over the sliced graph and is fingerprinted apart from the unbounded run.
func TestWindowedRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var full, windowed RunResult
	if code := postRun(t, ts, RunRequest{Graph: "transit", Algorithm: "sssp",
		Params: map[string]int64{"source": 1}}, &full); code != http.StatusOK {
		t.Fatalf("full run: HTTP %d", code)
	}
	if code := postRun(t, ts, RunRequest{Graph: "transit", Algorithm: "sssp",
		Params: map[string]int64{"source": 1},
		Window: &Window{Start: 0, End: 4}}, &windowed); code != http.StatusOK {
		t.Fatalf("windowed run: HTTP %d", code)
	}
	if full.Fingerprint == windowed.Fingerprint {
		t.Fatal("windowed run shares a fingerprint with the full run")
	}
	if windowed.Window != "[0,4)" {
		t.Fatalf("window label: %q", windowed.Window)
	}
}

// TestExecuteTypedErrors exercises the Go-level surface without HTTP.
func TestExecuteTypedErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := s.Execute(ctx, &RunRequest{Graph: "nope", Algorithm: "sssp"}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: %v", err)
	}
	if _, err := s.Execute(ctx, &RunRequest{Graph: "transit", Algorithm: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown algorithm: %v", err)
	}
	if _, err := s.Execute(ctx, &RunRequest{Graph: "transit", Algorithm: "sssp",
		Params: map[string]int64{"source": 99}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("missing source vertex: %v", err)
	}
}

// TestWorkerCountIsPartOfTheCacheKey: PageRank folds floats in the order
// messages arrive, so its bits depend on the worker count. A request at two
// workers after the same one at one must run again, not be answered with
// the one-worker bits, and match core.Run at two workers.
func TestWorkerCountIsPartOfTheCacheKey(t *testing.T) {
	g, err := gen.Generate(gen.TwitterLike(0.02), 7)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Graphs: map[string]*tgraph.Graph{"twitter": g}})
	direct := func(workers int) []string {
		prog, opts, err := algorithms.New(g, "pr", algorithms.Params{})
		if err != nil {
			t.Fatal(err)
		}
		opts.NumWorkers = workers
		r, err := core.Run(g, prog, opts)
		if err != nil {
			t.Fatalf("direct run at %d workers: %v", workers, err)
		}
		return FormatResult(r, 0)
	}
	one, two := direct(1), direct(2)
	if slices.Equal(one, two) {
		t.Fatal("PR gives the same bits at one and two workers on this graph: the test proves nothing")
	}
	for i, want := range [][]string{one, two} {
		workers := i + 1
		var res RunResult
		if code := postRun(t, ts, RunRequest{Graph: "twitter", Algorithm: "pr", Workers: workers}, &res); code != http.StatusOK {
			t.Fatalf("%d workers: HTTP %d", workers, code)
		}
		if res.Cached {
			t.Errorf("%d workers: answered from the cache", workers)
		}
		if got := res.FormatLines(0); !slices.Equal(got, want) {
			t.Errorf("%d workers: served result differs from core.Run at %d workers", workers, workers)
		}
	}
}

// TestExecuteResultDoesNotAliasCache: what a caller does with its result —
// the leader's, a hit's — never reaches the cache. Each hit serves the run's
// own bytes after the caller set Cached and Span on the leader's result and
// edited the decoded vertices of a miss and of a hit.
func TestExecuteResultDoesNotAliasCache(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := &RunRequest{Graph: "transit", Algorithm: "sssp", Params: map[string]int64{"source": 0}}
	tamper := func(res *RunResult) {
		t.Helper()
		vs, err := res.Vertices.Decode()
		if err != nil {
			t.Fatal(err)
		}
		vs[0].Parts[0].Value = "tampered"
	}
	miss, err := s.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Replace(renderRun(miss), []byte(`"cached": false`), []byte(`"cached": true`), 1)
	tamper(miss)
	miss.Cached, miss.Span = false, "ffffffffffffffff"
	for i := 0; i < 2; i++ {
		hit, err := s.Execute(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRun(hit); !bytes.Equal(got, want) {
			t.Fatalf("hit %d serves a caller's edit:\n got: %.400s\nwant: %.400s", i, got, want)
		}
		tamper(hit)
		hit.Span = "ffffffffffffffff"
	}
}
