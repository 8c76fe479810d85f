package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// quick runs one workload in -quick mode in this process.
func quick(t *testing.T, workload string, trace bool) (*report, error) {
	t.Helper()
	return runWorkload(runConfig{workload: workload, seed: 42, seconds: defaultSeconds,
		trace: trace, quick: true, outDir: t.TempDir()})
}

// Every workload, untraced and traced, at -quick size: answers verified,
// nothing failed, every declared metric reported.
func TestQuickEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := quick(t, w.name, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < quickOps {
				t.Fatalf("correct %v, %d failed of %d attempted", rep.Correct, rep.Failed, rep.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := rep.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
				}
			}

			rep, err = quick(t, w.name, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced: correct %v, %d failed", rep.Correct, rep.Failed)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			get := func(name string) float64 { return rep.Metrics[name].Value }
			// The contrasts each workload exists to show.
			switch w.name {
			case "serve_cold":
				if get("core.compute_calls_per_op") <= 0 || get("serve.cache_hit_ratio") != 0 {
					t.Errorf("cold: compute calls %v, cache hit ratio %v", get("core.compute_calls_per_op"), get("serve.cache_hit_ratio"))
				}
			case "serve_hot":
				if get("core.compute_calls_per_op") != 0 || get("serve.cache_hit_ratio") != 1 {
					t.Errorf("hot: compute calls %v, cache hit ratio %v", get("core.compute_calls_per_op"), get("serve.cache_hit_ratio"))
				}
			case "cluster_pr":
				if get("cluster.relay_bytes_per_op") != 0 || get("cluster.direct_bytes_per_op") <= 0 ||
					get("cluster.recoveries") != 0 || get("cluster.overhead_ratio") <= 0 {
					t.Errorf("cluster: relay %v direct %v recoveries %v overhead %v", get("cluster.relay_bytes_per_op"),
						get("cluster.direct_bytes_per_op"), get("cluster.recoveries"), get("cluster.overhead_ratio"))
				}
			case "live_refresh":
				if get("serve.seed_hit_ratio") < 0.95 || get("live.wal_bytes_per_event") <= 0 {
					t.Errorf("live: seed hit ratio %v, wal bytes/event %v", get("serve.seed_hit_ratio"), get("live.wal_bytes_per_event"))
				}
			}
			// Span children sum to their parents; what is left is reported.
			for _, s := range rep.Spans {
				if s.SelfNS < 0 || s.SelfNS > s.WallNS {
					t.Errorf("span %s: self %d outside [0, %d]", s.Name, s.SelfNS, s.WallNS)
				}
			}
		})
	}
}

// A wrong answer must fail the run: corrupt one expected result and every
// workload's verification has to notice.
func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	defer func() { corruptExpected = nil }()
	for _, w := range workloads {
		var hit atomic.Bool // serve verification compares from two goroutines
		corruptExpected = func(lines []string) {
			if len(lines) > 0 && hit.CompareAndSwap(false, true) {
				lines[len(lines)/2] += " tampered"
			}
		}
		rep, err := quick(t, w.name, false)
		if err == nil || !strings.Contains(err.Error(), "differs") {
			t.Errorf("%s: corrupted reference went unnoticed (err %v)", w.name, err)
		}
		if rep != nil && rep.Correct {
			t.Errorf("%s: run reported correct despite the mismatch", w.name)
		}
	}
}

// BENCHMARK.json, which the acceptance driver reads, must declare exactly
// the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, program has %s: %s", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, program has %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound declared %v, program has %v", kind, d.name, m.Bound, d.bound)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}
