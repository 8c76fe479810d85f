package chaos

// The cluster observability smoke test: one coordinator plus a worker fleet
// with planted SIGKILLs, per-worker /metrics endpoints and appended JSONL
// traces. It proves the acceptance criteria of the observability plane:
// every process serves valid Prometheus families while the run is live, the
// N+1 traces merge into one reconciled cluster timeline stamped with the
// coordinator-minted span ID, and the straggler attribution served by
// /debug/cluster matches the merged trace superstep by superstep.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/core"
	"graphite/internal/obs"
)

const smokeWorkers = 2

// scrapeLoop polls url until stop closes and returns the first body that
// contained every want substring, or the last body read when none did. It
// polls to the end because a fleet child with an HTTP endpoint exits only
// after one scrape of its finished run (see ChildSpec): whatever the timing
// of the planted kill, every incarnation that completes is scraped.
func scrapeLoop(url func() (string, error), want []string, stop <-chan struct{}) (body string, ok bool) {
	for {
		select {
		case <-stop:
			return body, ok
		default:
		}
		if u, err := url(); err == nil {
			if b, err := httpGet(u); err == nil && !ok {
				body, ok = b, true
				for _, w := range want {
					ok = ok && strings.Contains(b, w)
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

// workerURL resolves a worker slot's current /metrics URL from the addr
// file its live incarnation wrote (a replacement overwrites it).
func workerURL(dir string) func() (string, error) {
	return func() (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, WorkerHTTPAddrFile))
		if err != nil {
			return "", err
		}
		return "http://" + strings.TrimSpace(string(b)) + "/metrics", nil
	}
}

// trimToRun extracts the first run of a coordinator trace for validation:
// worker_join events precede run_start (SplitRuns drops those) and a
// worker's death during the final fBye broadcast can trail a WorkerLost
// after run_end, which trimming removes.
func trimToRun(events []obs.Event) []obs.Event {
	runs := obs.SplitRuns(events)
	if len(runs) == 0 {
		return nil
	}
	run := runs[0]
	for i := len(run) - 1; i >= 0; i-- {
		if _, ok := run[i].(obs.RunEnd); ok {
			return run[:i+1]
		}
	}
	return run
}

func parseTraceFile(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open worker trace: %v", err)
	}
	defer f.Close()
	events, err := obs.ParseTrace(f)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return events
}

// TestClusterObservabilityPlane is the metrics-smoke acceptance test (the
// Makefile metrics-smoke target): SSSP over a 1-coordinator/2-worker fleet
// with a kill-and-respawn mid-run, scraping /metrics on all three processes
// and reconciling the merged cluster trace against /debug/cluster.
func TestClusterObservabilityPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes; skipped in -short")
	}
	rec := &obs.Recorder{}
	reg := obs.NewRegistry()
	coord, err := cluster.New(cluster.Config{
		Workers:       smokeWorkers,
		Graph:         "transit",
		Algo:          "sssp",
		Params:        algorithms.Params{Source: 0},
		Lease:         500 * time.Millisecond,
		RejoinTimeout: 30 * time.Second,
		Registry:      reg,
		Tracer:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coord.Span() == "" {
		t.Fatal("coordinator did not mint a span ID")
	}

	// The coordinator HTTP surface, mounted exactly as graphite-coordinator
	// mounts it.
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(reg))
	mux.Handle("/debug/cluster", coord.DebugHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *core.Result
		err error
	}
	out := make(chan outcome, 1)
	go func() {
		res, err := coord.Serve(ln)
		out <- outcome{res, err}
	}()
	base := t.TempDir()
	dirs := make([]string, smokeWorkers)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("w%d", i))
	}
	fleet, err := StartFleet(FleetConfig{
		Addr:   ln.Addr().String(),
		Dirs:   dirs,
		Crash:  map[int]string{1: "compute:3"},
		HTTP:   true,
		Trace:  true,
		Stderr: testing.Verbose(),
	})
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}

	// Scrape every process until the fleet has exited. The coordinator
	// endpoint outlives the run; a worker's stays up until it has served one
	// scrape of the finished run.
	stopScrape := make(chan struct{})
	var wg sync.WaitGroup
	type scrape struct {
		body string
		ok   bool
	}
	workerScrapes := make([]scrape, smokeWorkers)
	for i := range dirs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, ok := scrapeLoop(workerURL(dirs[i]),
				[]string{"graphite_engine_supersteps_total", "# TYPE"}, stopScrape)
			workerScrapes[i] = scrape{body, ok}
		}(i)
	}
	var coordMidRun scrape
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, ok := scrapeLoop(func() (string, error) { return srv.URL + "/metrics", nil },
			[]string{"graphite_cluster_lease_remaining_ms"}, stopScrape)
		coordMidRun = scrape{body, ok}
	}()

	var o outcome
	select {
	case o = <-out:
	case <-time.After(90 * time.Second):
		coord.Close()
		fleet.Stop()
		t.Fatal("cluster run timed out")
	}
	if o.err != nil {
		fleet.Stop()
		t.Fatalf("cluster run failed: %v", o.err)
	}
	if err := fleet.Wait(); err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if fleet.Respawns() < 1 {
		t.Fatalf("planted crash did not kill the worker")
	}
	close(stopScrape)
	wg.Wait()

	// (1) Mid-run scrapes: the coordinator served fleet-health gauges and
	// every worker incarnation served its engine families.
	if !coordMidRun.ok {
		t.Errorf("coordinator /metrics never served graphite_cluster_lease_remaining_ms mid-run")
	}
	for i, s := range workerScrapes {
		if !s.ok {
			t.Errorf("worker %d /metrics never served the engine families; last body:\n%s", i, s.body)
		}
	}

	// (2) Post-run coordinator scrape: attribution and relay families.
	final, err := httpGet(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"# TYPE graphite_cluster_superstep_compute_ns histogram",
		"graphite_cluster_superstep_compute_ns_bucket{le=\"",
		"graphite_cluster_superstep_compute_ns_sum",
		"graphite_cluster_superstep_compute_ns_count",
		"graphite_cluster_step_skew_milli",
		"graphite_cluster_slowest_shard",
		"graphite_cluster_relay_bytes_total",
		`graphite_cluster_shard_compute_ns{shard="0"}`,
		`graphite_cluster_shard_compute_ns{shard="1"}`,
	} {
		if !strings.Contains(final, fam) {
			t.Errorf("coordinator /metrics missing %q", fam)
		}
	}

	// (3) The coordinator trace validates as a standard run trace.
	coordEvents := rec.Events()
	run := trimToRun(coordEvents)
	if run == nil {
		t.Fatal("coordinator trace has no run")
	}
	if err := obs.ValidateTrace(run); err != nil {
		t.Fatalf("coordinator trace does not validate: %v", err)
	}

	// (4) Merge the coordinator trace with both per-slot worker traces (the
	// killed slot's file spans two incarnations) and reconcile.
	var workerTraces [][]obs.Event
	for _, dir := range dirs {
		workerTraces = append(workerTraces, parseTraceFile(t, filepath.Join(dir, WorkerTraceFile)))
	}
	ct, err := obs.MergeClusterTrace(coordEvents, workerTraces)
	if err != nil {
		t.Fatalf("cluster trace reconciliation failed: %v", err)
	}
	if ct.Span != coord.Span() {
		t.Errorf("merged trace span %q, coordinator minted %q", ct.Span, coord.Span())
	}
	if ct.Workers != smokeWorkers {
		t.Errorf("merged trace workers = %d, want %d", ct.Workers, smokeWorkers)
	}
	if ct.Recoveries < 1 {
		t.Errorf("merged trace records no recovery; the kill should force one")
	}
	if len(ct.Steps) != o.res.Metrics.Supersteps {
		t.Errorf("merged trace has %d supersteps, run metrics say %d", len(ct.Steps), o.res.Metrics.Supersteps)
	}
	for _, row := range ct.Steps {
		if len(row.Shards) != smokeWorkers {
			t.Errorf("superstep %d: %d shard records, want %d", row.Superstep, len(row.Shards), smokeWorkers)
		}
		for _, st := range row.Shards {
			if st.Span != coord.Span() {
				t.Errorf("superstep %d shard %d record carries span %q, want %q",
					row.Superstep, st.Shard, st.Span, coord.Span())
			}
		}
	}

	// (5) /debug/cluster serves the merged trace's rows: every surviving
	// superstep's row is the same record, shard clocks and relay included.
	debugBody, err := httpGet(srv.URL + "/debug/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var dbg struct {
		Span        string            `json:"span"`
		Attribution []obs.ClusterStep `json:"attribution"`
	}
	if err := json.Unmarshal([]byte(debugBody), &dbg); err != nil {
		t.Fatalf("decode /debug/cluster: %v", err)
	}
	if dbg.Span != coord.Span() {
		t.Errorf("/debug/cluster span %q, want %q", dbg.Span, coord.Span())
	}
	// The attribution log keeps every execution (replays included); the
	// merged trace keeps the surviving one — the LAST row of a superstep.
	last := map[int]obs.ClusterStep{}
	for _, a := range dbg.Attribution {
		last[a.Superstep] = a
	}
	if len(dbg.Attribution) < len(ct.Steps) {
		t.Errorf("/debug/cluster has %d attribution rows, merged trace has %d surviving supersteps",
			len(dbg.Attribution), len(ct.Steps))
	}
	for _, row := range ct.Steps {
		if a, ok := last[row.Superstep]; !ok {
			t.Errorf("superstep %d missing from /debug/cluster attribution", row.Superstep)
		} else if !reflect.DeepEqual(a, row) {
			t.Errorf("superstep %d: /debug/cluster %+v disagrees with merged trace %+v", row.Superstep, a, row)
		}
	}

	// (6) The merged timeline renders.
	var sb strings.Builder
	ct.Render(&sb)
	if testing.Verbose() {
		t.Log("\n" + sb.String())
	}
	if !strings.Contains(sb.String(), "span="+coord.Span()) {
		t.Errorf("rendered cluster timeline missing the span header")
	}
}
