// Command graphite-loadgen drives load at a graphite query service and
// checks that the serving layer's result cache is actually absorbing
// repeated work. It is the engine behind `make serve-smoke`.
//
// Usage:
//
//	graphite-loadgen -boot                 # boot an in-process server on :0
//	graphite-loadgen -url http://host:8090 # or target a running server
//	                 [-graph name] [-repeat N] [-conc N] [-v]
//
// The driver fires a burst of mixed requests — several distinct
// (graph, algorithm, params) combinations, each repeated -repeat times —
// then reads /metrics and fails (exit 1) unless every request succeeded
// and serve.cache.hits is non-zero.
package main

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"

	"graphite/internal/obs"
	"graphite/internal/serve"
	"graphite/internal/serve/loadgen"
	"graphite/internal/tgraph"
)

func main() {
	var (
		boot    = flag.Bool("boot", false, "boot an in-process server over the transit example")
		url     = flag.String("url", "", "target an already-running server at this base URL")
		graph   = flag.String("graph", "transit", "graph name to query")
		repeat  = flag.Int("repeat", 8, "times to repeat each distinct request")
		conc    = flag.Int("conc", 8, "concurrent clients")
		verbose = flag.Bool("v", false, "verbose (debug-level) logging")
	)
	flag.Parse()
	log := obs.CLILogger("graphite-loadgen", *verbose)

	base := *url
	if *boot {
		s, err := serve.New(serve.Config{
			Graphs: map[string]*tgraph.Graph{*graph: tgraph.TransitExample()},
		})
		if err != nil {
			log.Error("boot server", "err", err)
			os.Exit(1)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()
		base = ts.URL
		log.Info("booted in-process server", "url", base)
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "need -boot or -url")
		flag.Usage()
		os.Exit(2)
	}

	// Mixed burst: distinct algorithm/param combinations, each repeated, so
	// the server must execute a handful of runs and serve the rest from the
	// cache (or collapse them in flight).
	reqs := []loadgen.Request{
		{Graph: *graph, Algorithm: "bfs", Params: map[string]int64{"source": 1}},
		{Graph: *graph, Algorithm: "sssp", Params: map[string]int64{"source": 1}},
		{Graph: *graph, Algorithm: "eat", Params: map[string]int64{"source": 1}},
		{Graph: *graph, Algorithm: "pr", Params: map[string]int64{"iterations": 5}},
		{Graph: *graph, Algorithm: "tmst", Params: map[string]int64{"source": 1}},
	}
	res, err := loadgen.Fire(base, reqs, *repeat, *conc)
	if err != nil {
		log.Error("fire burst", "err", err)
		os.Exit(1)
	}
	log.Info("burst complete", "requests", res.Requests, "elapsed", res.Elapsed,
		"by_status", fmt.Sprint(res.ByStatus), "cached_responses", res.CacheHits)
	// Sequential confirm pass: every distinct request is cached by now, so
	// each of these must land as a cache hit.
	confirm, err := loadgen.Fire(base, reqs, 1, 1)
	if err != nil {
		log.Error("confirm pass", "err", err)
		os.Exit(1)
	}

	fail := false
	if len(res.Errors)+len(confirm.Errors) > 0 {
		errs := append(res.Errors, confirm.Errors...)
		log.Error("transport errors", "count", len(errs), "first", errs[0])
		fail = true
	}
	if res.ByStatus[200] != res.Requests || confirm.ByStatus[200] != confirm.Requests {
		log.Error("non-200 responses", "burst", fmt.Sprint(res.ByStatus),
			"confirm", fmt.Sprint(confirm.ByStatus))
		fail = true
	}
	if confirm.CacheHits != int64(len(reqs)) {
		log.Error("confirm pass missed the cache", "cached", confirm.CacheHits, "want", len(reqs))
		fail = true
	}

	snap, err := loadgen.Metrics(base)
	if err != nil {
		log.Error("read /metrics", "err", err)
		os.Exit(1)
	}
	hits := loadgen.Metric(snap, serve.CCacheHits)
	dedup := loadgen.Metric(snap, serve.CFlightDedup)
	executed := loadgen.Metric(snap, serve.CRunsExecuted)
	log.Info("server metrics", "cache_hits", hits, "flight_dedup", dedup, "runs_executed", executed)

	// The cache assertion: each distinct request executes at most once per
	// miss; everything else must come back as a hit (or in-flight join that
	// the cache then serves). Requiring hits > 0 proves the cache is live.
	if hits <= 0 {
		log.Error("result cache absorbed no requests", "cache_hits", hits)
		fail = true
	}
	if executed > float64(len(reqs)) {
		log.Error("more BSP executions than distinct requests",
			"executed", executed, "distinct", len(reqs))
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	fmt.Printf("serve-smoke OK: %d requests, %d distinct runs executed, %.0f cache hits, %.0f in-flight joins\n",
		res.Requests+confirm.Requests, int(executed), hits, dedup)
}
