package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median odd = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	// Nearest rank: the 90th of 100 samples leaves exactly ten beyond it.
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(hundred, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if hundred[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
		{[]float64{6}, 6, 6},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread with zero median = %v, want 0", got)
	}
}

func TestDisagreement(t *testing.T) {
	timed := metricDef{name: "op_p50_ms", bound: 0.10}
	if p := disagreement(timed, []float64{100, 109}); p != "" {
		t.Errorf("9%% apart flagged: %s", p)
	}
	if p := disagreement(timed, []float64{100, 112}); p == "" {
		t.Error("12% apart not flagged against a 10% bound")
	}
	count := metricDef{name: "core.msgs_per_op", exact: true}
	if p := disagreement(count, []float64{42, 42, 42}); p != "" {
		t.Errorf("repeating count flagged: %s", p)
	}
	if p := disagreement(count, []float64{42, 42.5}); p == "" {
		t.Error("count that does not repeat not flagged")
	}
	if p := disagreement(metricDef{name: "warp.ns_per_msg"}, []float64{1, 9}); p != "" {
		t.Errorf("unbounded time metric flagged: %s", p)
	}
}
