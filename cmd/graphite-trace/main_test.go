package main

import (
	"bytes"
	"strings"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// TestCheckDropsEventsAfterRunEnd: -check on a traced run whose file goes on
// past its run_end — a coordinator that loses a worker after the run has
// ended writes a worker_lost there — validates the run and ignores the
// trailing event, whether another run follows or not. A run cut before its
// run_end still fails.
func TestCheckDropsEventsAfterRunEnd(t *testing.T) {
	g := tgraph.TransitExample()
	prog, opts, err := algorithms.New(g, "sssp", algorithms.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	opts.NumWorkers, opts.Tracer = 2, tr
	if _, err := core.Run(g, prog, opts); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	run := buf.String()
	lost := `{"type":"worker_lost","shard":1,"superstep":4,"reason":"connection reset"}` + "\n"
	body := strings.TrimSuffix(run, "\n")
	cut := body[:strings.LastIndexByte(body, '\n')+1] // the run without its run_end
	for _, tc := range []struct {
		name  string
		trace string
		runs  int
		ok    bool
	}{
		{"trailing worker_lost", run + lost, 1, true},
		{"worker_lost between runs", run + lost + run, 2, true},
		{"no run_end", cut + lost, 1, false},
	} {
		events, err := obs.ParseTrace(strings.NewReader(tc.trace))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		runs := obs.SplitRuns(events)
		if len(runs) != tc.runs {
			t.Fatalf("%s: %d runs, want %d", tc.name, len(runs), tc.runs)
		}
		if err := validateRuns(runs); (err == nil) != tc.ok {
			t.Errorf("%s: -check returned %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
