package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"graphite/internal/live"
	"graphite/internal/tgraph"
)

// newLiveServer boots a Server over one WAL-backed live graph named "g"
// (initially empty) plus an httptest frontend.
func newLiveServer(t *testing.T, opts live.Options) (*Server, *live.Graph, *httptest.Server) {
	t.Helper()
	lg, err := live.Open(filepath.Join(t.TempDir(), "g.wal"), opts)
	if err != nil {
		t.Fatalf("live.Open: %v", err)
	}
	s, err := New(Config{Live: map[string]*live.Graph{"g": lg}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
		_ = lg.Close()
	})
	return s, lg, ts
}

// postEvents POSTs a mutation batch and decodes the response into out (which
// may be nil; a *[]byte receives the body's bytes), returning the HTTP
// status.
func postEvents(t *testing.T, ts *httptest.Server, graph string, evs []EventWire, out any) int {
	t.Helper()
	body, err := json.Marshal(EventsRequest{Events: evs})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs/"+graph+"/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST events: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read events response: %v", err)
	}
	if b, ok := out.(*[]byte); ok {
		*b = raw
	} else if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode events response: %v", err)
		}
	}
	return resp.StatusCode
}

// chainEvents appends vertices [lo,hi) to a growing chain starting at time
// t0: vertex i is born at t0+(i-lo), with an edge (i-1 -> i, travel-time and
// travel-cost 1 — the TD algorithms need both props to traverse) once a
// predecessor exists.
func chainEvents(lo, hi int, t0 int64) []EventWire {
	var evs []EventWire
	for i := lo; i < hi; i++ {
		tt := t0 + int64(i-lo)
		evs = append(evs, EventWire{Op: "av", T: tt, V: int64(i)})
		if i > 0 {
			evs = append(evs, EventWire{Op: "ae", T: tt, E: int64(i - 1), Src: int64(i - 1), Dst: int64(i)})
			evs = append(evs, EventWire{Op: "ep", T: tt, E: int64(i - 1), Label: tgraph.PropTravelTime, Value: 1})
			evs = append(evs, EventWire{Op: "ep", T: tt, E: int64(i - 1), Label: tgraph.PropTravelCost, Value: 1})
		}
	}
	return evs
}

// TestLiveMutationEpochsAndCacheValidity drives the full loop: ingest over
// HTTP, query, ingest more, and check that cached results for windows the
// new batch cannot affect stay valid while affected windows recompute under
// a new effective epoch.
func TestLiveMutationEpochsAndCacheValidity(t *testing.T) {
	_, lg, ts := newLiveServer(t, live.Options{Name: "g"})

	// Querying the still-empty graph is a 400, not a crash.
	if code := postRun(t, ts, RunRequest{Graph: "g", Algorithm: "eat", Params: map[string]int64{"source": 0}}, nil); code != http.StatusBadRequest {
		t.Fatalf("run on empty live graph: HTTP %d, want 400", code)
	}

	// The ack, byte for byte: the graph's name and its new epoch's summary.
	var body []byte
	if code := postEvents(t, ts, "g", chainEvents(0, 8, 1), &body); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", code)
	}
	const wantAck = "{\n  \"graph\": \"g\",\n  \"epoch\": 1,\n  \"events\": 29,\n  \"last_time\": 8,\n" +
		"  \"vertices\": 8,\n  \"edges\": 7\n}\n"
	if string(body) != wantAck {
		t.Fatalf("ack body %q, want %q", body, wantAck)
	}
	var ack EventsResult
	if err := json.Unmarshal(body, &ack); err != nil || ack.Epoch != 1 || ack.Vertices != 8 || ack.Edges != 7 {
		t.Fatalf("ack = %+v (%v), want epoch 1, 8 vertices, 7 edges", ack, err)
	}

	// GET /v1/graphs reports the live epoch.
	resp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatalf("GET graphs: %v", err)
	}
	var graphs struct{ Graphs []GraphInfo }
	if err := json.NewDecoder(resp.Body).Decode(&graphs); err != nil {
		t.Fatalf("decode graphs: %v", err)
	}
	resp.Body.Close()
	if len(graphs.Graphs) != 1 || !graphs.Graphs[0].Live || graphs.Graphs[0].Epoch != 1 {
		t.Fatalf("graphs = %+v, want one live graph at epoch 1", graphs.Graphs)
	}

	eat := func(end int64) RunRequest {
		return RunRequest{Graph: "g", Algorithm: "eat",
			Params: map[string]int64{"source": 0}, Window: &Window{Start: 0, End: end}}
	}
	var narrow1, wide1 RunResult
	if code := postRun(t, ts, eat(6), &narrow1); code != http.StatusOK {
		t.Fatalf("narrow run: HTTP %d", code)
	}
	if code := postRun(t, ts, eat(100), &wide1); code != http.StatusOK {
		t.Fatalf("wide run: HTTP %d", code)
	}
	if narrow1.Cached || wide1.Cached {
		t.Fatalf("first runs must execute (narrow cached=%v wide cached=%v)", narrow1.Cached, wide1.Cached)
	}
	if narrow1.Epoch != 1 || wide1.Epoch != 1 {
		t.Fatalf("effective epochs = %d/%d, want 1/1", narrow1.Epoch, wide1.Epoch)
	}

	// A batch at t>=20 cannot change the window [0,6): its cache entry must
	// survive. The window [0,100) is affected and must recompute.
	if code := postEvents(t, ts, "g", chainEvents(8, 12, 20), &ack); code != http.StatusOK {
		t.Fatalf("second ingest: HTTP %d", code)
	}
	if ack.Epoch != 2 {
		t.Fatalf("ack epoch = %d, want 2", ack.Epoch)
	}
	var narrow2, wide2 RunResult
	postRun(t, ts, eat(6), &narrow2)
	postRun(t, ts, eat(100), &wide2)
	if !narrow2.Cached || narrow2.Fingerprint != narrow1.Fingerprint {
		t.Errorf("untouched window lost its cache entry (cached=%v)", narrow2.Cached)
	}
	if wide2.Cached {
		t.Errorf("affected window served a stale cached result")
	}
	if wide2.Fingerprint == wide1.Fingerprint {
		t.Errorf("affected window's fingerprint did not move with the epoch")
	}
	if wide2.Epoch != 2 || len(wide2.FormatLines(0)) != 12 {
		t.Errorf("recomputed wide run: epoch %d, %d vertices; want epoch 2, 12 vertices",
			wide2.Epoch, len(wide2.FormatLines(0)))
	}
	if lg.EpochsLive() != 1 {
		t.Errorf("epochs live = %d after all queries returned, want 1", lg.EpochsLive())
	}
}

// TestEventsEndpointValidation pins the mutation endpoint's error contract:
// every rejection is typed, atomic, and leaves the epoch untouched.
func TestEventsEndpointValidation(t *testing.T) {
	_, _, ts := newLiveServer(t, live.Options{Name: "g"})
	// A second server with a static graph, for the static-mutation rejection.
	_, ts2 := newTestServer(t, Config{})

	if code := postEvents(t, ts, "g", chainEvents(0, 4, 1), nil); code != http.StatusOK {
		t.Fatalf("seed ingest: HTTP %d", code)
	}
	epoch := func() uint64 {
		resp, err := http.Get(ts.URL + "/v1/graphs")
		if err != nil {
			t.Fatalf("GET graphs: %v", err)
		}
		var out struct{ Graphs []GraphInfo }
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		return out.Graphs[0].Epoch
	}
	if got := epoch(); got != 1 {
		t.Fatalf("epoch after seed ingest = %d, want 1", got)
	}

	for name, tc := range map[string]struct {
		graph string
		ts    *httptest.Server
		evs   []EventWire
		want  int
	}{
		"unknown graph": {graph: "nope", ts: ts, evs: chainEvents(20, 21, 50), want: http.StatusNotFound},
		"static graph":  {graph: "transit", ts: ts2, evs: chainEvents(20, 21, 50), want: http.StatusBadRequest},
		"empty batch":   {graph: "g", ts: ts, evs: nil, want: http.StatusBadRequest},
		"unknown op":    {graph: "g", ts: ts, evs: []EventWire{{Op: "zz", T: 50}}, want: http.StatusBadRequest},
		"out of order":  {graph: "g", ts: ts, evs: []EventWire{{Op: "av", T: 1, V: 99}}, want: http.StatusBadRequest},
		"unknown owner": {graph: "g", ts: ts, evs: []EventWire{{Op: "re", T: 50, E: 99}}, want: http.StatusBadRequest},
		"open edges":    {graph: "g", ts: ts, evs: []EventWire{{Op: "rv", T: 50, V: 1}}, want: http.StatusBadRequest},
		"atomic rejection": {graph: "g", ts: ts,
			evs:  []EventWire{{Op: "av", T: 50, V: 90}, {Op: "av", T: 50, V: 0}}, // second reopens vertex 0
			want: http.StatusBadRequest},
	} {
		if code := postEvents(t, tc.ts, tc.graph, tc.evs, nil); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", name, code, tc.want)
		}
	}
	if got := epoch(); got != 1 {
		t.Errorf("epoch moved to %d on rejected batches, want 1", got)
	}
	// The vertex from the atomically rejected batch must not exist: re-adding
	// it now succeeds.
	if code := postEvents(t, ts, "g", []EventWire{{Op: "av", T: 60, V: 90}}, nil); code != http.StatusOK {
		t.Errorf("vertex 90 leaked from the rejected batch")
	}
}

// TestIncrementalServing pins the serving half of incremental recomputation:
// a window-extension request on a seedable algorithm reports Seeded, sends
// fewer messages than a cold run and returns its result bit-identically;
// mutations below the prior window end invalidate the seed; non-seedable
// algorithms never seed.
func TestIncrementalServing(t *testing.T) {
	srv, _, ts := newLiveServer(t, live.Options{Name: "g"})
	if code := postEvents(t, ts, "g", chainEvents(0, 10, 1), nil); code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", code)
	}
	eat := func(end int64, noCache bool) RunRequest {
		return RunRequest{Graph: "g", Algorithm: "eat", NoCache: noCache,
			Params: map[string]int64{"source": 0}, Window: &Window{Start: 0, End: end}}
	}

	var prior, incr, cold RunResult
	postRun(t, ts, eat(6, false), &prior)
	if prior.Seeded {
		t.Fatalf("first run cannot be seeded")
	}
	postRun(t, ts, eat(50, false), &incr)
	if !incr.Seeded {
		t.Fatalf("window extension [0,6)->[0,50) did not seed")
	}
	postRun(t, ts, eat(50, true), &cold) // NoCache: forced cold recompute
	if cold.Seeded {
		t.Fatalf("NoCache run must stay cold")
	}
	if !reflect.DeepEqual(incr.Vertices, cold.Vertices) {
		t.Fatalf("seeded run diverged from cold recompute:\nseeded: %q\ncold:   %q", incr.FormatLines(0), cold.FormatLines(0))
	}
	// The seeded run pays for the extension only: the superstep-1 messages
	// its seeds already absorb are not sent.
	if incr.Metrics.Messages >= cold.Metrics.Messages {
		t.Errorf("seeded run sent %d messages, the cold run %d: want fewer", incr.Metrics.Messages, cold.Metrics.Messages)
	}
	if got := srv.Registry().Counter(CSeedHits).Load(); got < 1 {
		t.Errorf("seed hits = %d, want >= 1", got)
	}

	// A mutation below the retained window end ([0,50) retained, batch at
	// t=20 < 50) must invalidate the seed: the next extension runs cold.
	if code := postEvents(t, ts, "g", chainEvents(10, 13, 20), nil); code != http.StatusOK {
		t.Fatalf("mutating ingest: HTTP %d", code)
	}
	var after RunResult
	postRun(t, ts, eat(80, false), &after)
	if after.Seeded {
		t.Errorf("stale seed used across a mutation below the prior window end")
	}

	// Non-seedable algorithms always run cold.
	var pr1, pr2 RunResult
	postRun(t, ts, RunRequest{Graph: "g", Algorithm: "pr", Window: &Window{Start: 0, End: 10}}, &pr1)
	postRun(t, ts, RunRequest{Graph: "g", Algorithm: "pr", Window: &Window{Start: 0, End: 80}}, &pr2)
	if pr1.Seeded || pr2.Seeded {
		t.Errorf("pagerank must never seed (got %v/%v)", pr1.Seeded, pr2.Seeded)
	}
}

// TestIncrementalServingStaticGraph checks seeding also works for static
// graphs (version never changes, so every retained window stays valid).
func TestIncrementalServingStaticGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := func(end int64, noCache bool) RunRequest {
		return RunRequest{Graph: "transit", Algorithm: "eat", NoCache: noCache,
			Params: map[string]int64{"source": 0}, Window: &Window{Start: 0, End: end}}
	}
	var prior, incr, cold RunResult
	postRun(t, ts, req(4, false), &prior)
	postRun(t, ts, req(9, false), &incr)
	if !incr.Seeded {
		t.Fatalf("static window extension did not seed")
	}
	postRun(t, ts, req(9, true), &cold)
	if !reflect.DeepEqual(incr.Vertices, cold.Vertices) {
		t.Fatalf("static seeded run diverged from cold recompute")
	}
}

// TestConcurrentIngestAndQueries is the serve-level MVCC race test: readers
// keep executing against epoch snapshots while a writer appends batches.
// Under -race this doubles as the data-race proof for the epoch lifecycle.
func TestConcurrentIngestAndQueries(t *testing.T) {
	_, lg, ts := newLiveServer(t, live.Options{Name: "g"})
	if code := postEvents(t, ts, "g", chainEvents(0, 6, 1), nil); code != http.StatusOK {
		t.Fatalf("seed ingest: HTTP %d", code)
	}

	const batches, readers, queries = 20, 3, 8
	var wg sync.WaitGroup
	errs := make(chan error, readers*queries+batches)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			lo := 6 + i*3
			if code := postEvents(t, ts, "g", chainEvents(lo, lo+3, int64(10+i*5)), nil); code != http.StatusOK {
				errs <- fmt.Errorf("ingest %d: HTTP %d", i, code)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				var res RunResult
				code := postRun(t, ts, RunRequest{Graph: "g", Algorithm: "eat", NoCache: true,
					Params: map[string]int64{"source": 0}, Window: &Window{Start: 0, End: 5}}, &res)
				if code != http.StatusOK {
					errs <- fmt.Errorf("query: HTTP %d", code)
					continue
				}
				// The window [0,5) predates every concurrent batch: its result
				// is invariant no matter which epoch served it.
				if n := len(res.FormatLines(0)); n != 4 {
					errs <- fmt.Errorf("query saw %d vertices in [0,5), want 4", n)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if lg.EpochsLive() != 1 {
		t.Errorf("epochs live = %d after quiescence, want 1", lg.EpochsLive())
	}
}
