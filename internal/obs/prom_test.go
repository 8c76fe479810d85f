package obs_test

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphite/internal/obs"
)

// TestDefaultDurationBucketsPinned pins the default histogram boundaries:
// dashboards and recorded BENCH artifacts bake these `le` values in, so a
// drive-by change to the defaults must fail a test, not silently shift every
// exported histogram.
func TestDefaultDurationBucketsPinned(t *testing.T) {
	want := []time.Duration{
		10 * time.Microsecond, 40 * time.Microsecond, 160 * time.Microsecond,
		640 * time.Microsecond, 2560 * time.Microsecond, 10 * time.Millisecond,
		41 * time.Millisecond, 164 * time.Millisecond, 655 * time.Millisecond,
		2621 * time.Millisecond, 10486 * time.Millisecond, 41943 * time.Millisecond,
	}
	if len(obs.DefaultDurationBuckets) != len(want) {
		t.Fatalf("obs.DefaultDurationBuckets has %d bounds, want %d", len(obs.DefaultDurationBuckets), len(want))
	}
	for i, b := range want {
		if obs.DefaultDurationBuckets[i] != b {
			t.Errorf("bound %d = %v, want %v", i, obs.DefaultDurationBuckets[i], b)
		}
	}
}

// TestHistogramCumulative: cumulative counts are monotone, each bucket holds
// everything at or under its bound, and the trailing +Inf bucket equals the
// total observation count (the invariant Prometheus scrapes rely on).
func TestHistogramCumulative(t *testing.T) {
	h := obs.NewHistogram([]time.Duration{10, 100, 1000})
	for _, d := range []time.Duration{5, 10, 50, 100, 500, 5000} {
		h.Observe(d)
	}
	got := h.Cumulative()
	want := []obs.HistogramBucket{
		{UpperBound: 10, Count: 2},
		{UpperBound: 100, Count: 4},
		{UpperBound: 1000, Count: 5},
		{UpperBound: obs.BucketInf, Count: 6},
	}
	if len(got) != len(want) {
		t.Fatalf("Cumulative() has %d buckets, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[len(got)-1].Count != h.Count() {
		t.Errorf("+Inf bucket %d != Count() %d", got[len(got)-1].Count, h.Count())
	}
}

// TestHistogramQuantile pins the interpolation: exact ranks, the empty
// histogram, and the overflow clamp to the last bound.
func TestHistogramQuantile(t *testing.T) {
	h := obs.NewHistogram([]time.Duration{100, 200})
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", h.Quantile(0.5))
	}
	// Four observations in (0,100], four in (100,200]: the median sits at
	// the top of the first bucket, p100 at the top of the second.
	for i := 0; i < 4; i++ {
		h.Observe(50)
		h.Observe(150)
	}
	if got := h.Quantile(0.5); got != 100 {
		t.Errorf("p50 = %v, want 100 (top of first bucket)", got)
	}
	if got := h.Quantile(1.0); got != 200 {
		t.Errorf("p100 = %v, want 200", got)
	}
	if got := h.Quantile(0.25); got != 50 {
		t.Errorf("p25 = %v, want 50 (midpoint of first bucket)", got)
	}
	h.Observe(99999) // overflow: quantiles can't resolve past the last bound
	if got := h.Quantile(1.0); got != 200 {
		t.Errorf("overflowed p100 = %v, want clamp to 200", got)
	}
}

// goldenRegistry builds the deterministic registry behind the exposition
// golden file: a counter (gets the conventional _total suffix), a counter
// already suffixed (must not double it), a gauge, a labeled gauge family
// including a value that needs escaping, and a histogram with pinned bounds.
func goldenRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("engine.messages").Add(42)
	r.Counter("cluster.relay_bytes_total").Add(7)
	r.Gauge("cluster.slowest_shard").Set(1)
	r.Gauge(obs.WithLabels("cluster.shard_compute_ns", "shard", "0")).Set(1500)
	r.Gauge(obs.WithLabels("cluster.shard_compute_ns", "shard", "1")).Set(2500)
	r.Gauge(obs.WithLabels("serve.inflight", "algo", `we"ird\nam`+"\ne")).Set(3)
	h := r.HistogramWith("engine.superstep.compute_ns", []time.Duration{1000, 1000000})
	h.Observe(500)
	h.Observe(800)
	h.Observe(5000)
	h.Observe(2000000)
	return r
}

// TestWritePrometheusGolden pins the full text exposition — HELP/TYPE
// lines, the graphite_ prefix and name mangling, counter _total suffixing,
// label rendering with escapes, and the histogram _bucket/_sum/_count
// triplet with cumulative counts — against testdata/prom_golden.txt.
// Regenerate with `go test ./internal/obs -run Golden -update`.
func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	obs.WritePrometheus(&sb, goldenRegistry())
	got := sb.String()

	path := filepath.Join("testdata", "prom_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("Prometheus exposition drifted from golden (run with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Structural spot checks, independent of the golden bytes.
	for _, line := range []string{
		"# TYPE graphite_engine_messages_total counter",
		"graphite_engine_messages_total 42",
		"# TYPE graphite_cluster_relay_bytes_total counter",
		"graphite_cluster_relay_bytes_total 7",
		`graphite_cluster_shard_compute_ns{shard="0"} 1500`,
		`graphite_serve_inflight{algo="we\"ird\\nam\ne"} 3`,
		"# TYPE graphite_engine_superstep_compute_ns histogram",
		`graphite_engine_superstep_compute_ns_bucket{le="1000"} 2`,
		`graphite_engine_superstep_compute_ns_bucket{le="1000000"} 3`,
		`graphite_engine_superstep_compute_ns_bucket{le="+Inf"} 4`,
		"graphite_engine_superstep_compute_ns_sum 2006300",
		"graphite_engine_superstep_compute_ns_count 4",
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q", line)
		}
	}
	if strings.Contains(got, "_total_total") {
		t.Error("counter suffix applied twice")
	}
}

// TestMetricsHandler: the /metrics endpoint serves the exposition with the
// 0.0.4 content type, and a nil registry serves an empty (valid) body.
func TestMetricsHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	obs.MetricsHandler(goldenRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentTypeMetrics {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentTypeMetrics)
	}
	if !strings.Contains(rec.Body.String(), "graphite_engine_messages_total 42") {
		t.Errorf("handler body missing metrics:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	obs.MetricsHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.Len() != 0 {
		t.Errorf("nil registry served %q, want empty", rec.Body.String())
	}
}

// scrapeSamples GETs a /metrics exposition and returns every sample in it:
// sample name, with its label block if it has one, → value.
func scrapeSamples(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may hold spaces; the sample value never does.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return samples
}

// TestMetricsScrapeMatchesRegistry: what the endpoint publishes decodes and
// equals the registry — every counter, gauge and histogram written to a
// registry and served by obs.MetricsHandler reads back through a scrape
// with the value Registry.Export holds, under the name obs gives it.
func TestMetricsScrapeMatchesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("serve.cache.hits").Add(12)
	reg.Counter("engine.messages_total").Add(3) // already carries the suffix
	reg.Gauge(obs.GMaxPartitions).Set(-3)
	reg.Gauge(obs.WithLabels(obs.GClusterShardComputeNS, "shard", "a b")).Set(5)
	h := reg.Histogram(obs.HSuperstepComputeNS)
	h.Observe(20 * time.Microsecond)
	h.Observe(time.Hour) // past every bound
	ts := httptest.NewServer(obs.MetricsHandler(reg))
	defer ts.Close()

	got := scrapeSamples(t, ts.URL)
	ex := reg.Export()
	want := map[string]float64{
		// The one labeled series, spelled out: a space inside a label value
		// must not split the sample.
		obs.PromName(obs.GClusterShardComputeNS, "gauge") + `{shard="a b"}`: 5,
	}
	for n, v := range ex.Counters {
		pn := obs.PromName(n, "counter")
		want[pn] = float64(v)
		if got[pn] != float64(v) {
			t.Errorf("counter %s = %v, registry holds %d", n, got[pn], v)
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
