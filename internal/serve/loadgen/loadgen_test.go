package loadgen

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

// TestFireAgainstInProcessServer is the smoke path cmd/graphite-loadgen
// automates: a mixed burst against a booted server must succeed end to end
// with live cache hits visible through /metrics.
func TestFireAgainstInProcessServer(t *testing.T) {
	s, err := serve.New(serve.Config{
		Graphs: map[string]*tgraph.Graph{"transit": tgraph.TransitExample()},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	reqs := []Request{
		{Graph: "transit", Algorithm: "sssp", Params: map[string]int64{"source": 1}},
		{Graph: "transit", Algorithm: "bfs", Params: map[string]int64{"source": 1}},
	}
	res, err := Fire(ts.URL, reqs, 6, 4)
	if err != nil {
		t.Fatalf("Fire: %v", err)
	}
	if len(res.Errors) > 0 {
		t.Fatalf("transport errors: %v", res.Errors)
	}
	if res.ByStatus[200] != res.Requests {
		t.Fatalf("statuses: %v, want all %d OK", res.ByStatus, res.Requests)
	}

	// A sequential confirm pass: everything is cached now, so these must all
	// be hits.
	res2, err := Fire(ts.URL, reqs, 1, 1)
	if err != nil {
		t.Fatalf("confirm pass: %v", err)
	}
	if res2.ByStatus[200] != res2.Requests {
		t.Fatalf("confirm statuses: %v", res2.ByStatus)
	}

	snap, err := Metrics(ts.URL)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	hits := Metric(snap, serve.CCacheHits)
	dedup := Metric(snap, serve.CFlightDedup)
	executed := Metric(snap, serve.CRunsExecuted)
	total := res.Requests + res2.Requests
	if executed != float64(len(reqs)) {
		t.Fatalf("runs executed: %v, want %d (one per distinct request)", executed, len(reqs))
	}
	if hits+dedup != float64(total)-executed {
		t.Fatalf("hits(%v)+dedup(%v) != requests(%d)-executed(%v)",
			hits, dedup, total, executed)
	}
	if hits < float64(len(reqs)) {
		t.Fatalf("cache hits: %v, want >= %d (the confirm pass)", hits, len(reqs))
	}
	if res2.CacheHits != int64(len(reqs)) {
		t.Fatalf("confirm pass cached responses: %d, want %d", res2.CacheHits, len(reqs))
	}
}

// TestMetricsScrapeMatchesRegistry: what the endpoint publishes decodes and
// equals the registry — every counter, gauge and histogram written to a
// registry and served by obs.MetricsHandler reads back through Metrics with
// the value Registry.Export holds, under the name obs gives it.
func TestMetricsScrapeMatchesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(serve.CCacheHits).Add(12)
	reg.Counter("engine.messages_total").Add(3) // already carries the suffix
	reg.Gauge(obs.GMaxPartitions).Set(-3)
	reg.Gauge(obs.WithLabels(obs.GClusterShardComputeNS, "shard", "a b")).Set(5)
	h := reg.Histogram(obs.HSuperstepComputeNS)
	h.Observe(20 * time.Microsecond)
	h.Observe(time.Hour) // past every bound
	ts := httptest.NewServer(obs.MetricsHandler(reg))
	defer ts.Close()

	got, err := Metrics(ts.URL)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	ex := reg.Export()
	want := map[string]float64{
		// The one labeled series, spelled out: a space inside a label value
		// must not split the sample.
		obs.PromName(obs.GClusterShardComputeNS, "gauge") + `{shard="a b"}`: 5,
	}
	for n, v := range ex.Counters {
		want[obs.PromName(n, "counter")] = float64(v)
		if Metric(got, n) != float64(v) {
			t.Errorf("Metric(%s) = %v, registry holds %d", n, Metric(got, n), v)
		}
	}
	for n, v := range ex.Gauges {
		if !strings.ContainsRune(n, '{') {
			want[obs.PromName(n, "gauge")] = float64(v)
		}
	}
	for n, h := range ex.Histograms {
		pn := obs.PromName(n, "histogram")
		want[pn+"_count"] = float64(h.Count())
		want[pn+"_sum"] = float64(h.Sum())
		for _, b := range h.Cumulative() {
			le := "+Inf"
			if b.UpperBound != obs.BucketInf {
				le = strconv.FormatInt(int64(b.UpperBound), 10)
			}
			want[pn+`_bucket{le="`+le+`"}`] = float64(b.Count)
		}
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("sample %s = %v (present %v), registry holds %v", name, g, ok, v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("scrape has %d samples, the registry accounts for %d: %v", len(got), len(want), got)
	}
}
