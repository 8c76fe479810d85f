package algorithms

import (
	"reflect"
	"testing"

	"graphite/internal/engine"
	ival "graphite/internal/interval"
	"graphite/internal/tgraph"
)

// wantStates asserts the decoded reachable states of one vertex.
func wantStates(t *testing.T, got []IntervalValue, want []IntervalValue, who string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: states = %v, want %v", who, got, want)
	}
}

// TestSSSPTransitWalkthrough replays the paper's running example (Fig. 1,
// Fig. 2): temporal SSSP from A at time 0 over the transit network.
func TestSSSPTransitWalkthrough(t *testing.T) {
	g := tgraph.TransitExample()
	for _, workers := range []int{1, 2, 4} {
		r, err := RunSSSP(g, 0, 0, workers)
		if err != nil {
			t.Fatalf("RunSSSP: %v", err)
		}
		wantStates(t, SSSPCosts(r, 0), []IntervalValue{{ival.Universe, 0}}, "A")
		wantStates(t, SSSPCosts(r, 1), []IntervalValue{
			{ival.New(4, 6), 4}, {ival.From(6), 3},
		}, "B")
		wantStates(t, SSSPCosts(r, 2), []IntervalValue{{ival.From(2), 3}}, "C")
		wantStates(t, SSSPCosts(r, 3), []IntervalValue{{ival.From(5), 2}}, "D")
		wantStates(t, SSSPCosts(r, 4), []IntervalValue{
			{ival.New(6, 9), 7}, {ival.From(9), 5},
		}, "E")
		wantStates(t, SSSPCosts(r, 5), nil, "F (unreachable)")

		// The paper counts 7 interval-vertex visits and 6 edge traversals
		// for this example; visits exclude the no-op superstep-1 calls on
		// non-source vertices.
		if r.Metrics.Messages != 6 {
			t.Errorf("workers=%d: messages = %d, want 6", workers, r.Metrics.Messages)
		}
		if r.Stats.ActiveIntervals != 6+2+1+1+2 {
			t.Errorf("workers=%d: active intervals = %d, want 12 (6 init + 6 warped)",
				workers, r.Stats.ActiveIntervals)
		}
		if r.Metrics.ComputeCalls != 12 {
			t.Errorf("workers=%d: compute calls = %d, want 12", workers, r.Metrics.ComputeCalls)
		}
		if r.Metrics.Supersteps != 3 {
			t.Errorf("workers=%d: supersteps = %d, want 3", workers, r.Metrics.Supersteps)
		}
	}
}

// TestSSSPLaterStart verifies StartTime handling: starting at time 5 forfeits
// the early A->C and A->B(cost 4) departures.
func TestSSSPLaterStart(t *testing.T) {
	g := tgraph.TransitExample()
	r, err := RunSSSP(g, 0, 5, 2)
	if err != nil {
		t.Fatalf("RunSSSP: %v", err)
	}
	// A can still depart to B at cost 3 during [5,6), and to nothing else.
	wantStates(t, SSSPCosts(r, 1), []IntervalValue{{ival.From(6), 3}}, "B")
	wantStates(t, SSSPCosts(r, 2), nil, "C")
	wantStates(t, SSSPCosts(r, 4), []IntervalValue{{ival.From(9), 5}}, "E")
}

// TestSSSPStateInvariants runs with invariant checking to assert the
// partitioned-state contract holds throughout the computation.
func TestSSSPStateInvariants(t *testing.T) {
	g := tgraph.TransitExample()
	a := &SSSP{Source: 0}
	opts := a.Options()
	opts.CheckInvariants = true
	opts.NumWorkers = 3
	if _, err := runWith(g, a, opts); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestSSSPOverTCPTransport runs the walkthrough with all cross-worker
// traffic on real loopback sockets; results must be identical.
func TestSSSPOverTCPTransport(t *testing.T) {
	tr, err := engine.NewTCPTransport(3)
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	defer tr.Close()
	g := tgraph.TransitExample()
	a := &SSSP{Source: 0}
	opts := a.Options()
	opts.NumWorkers = 3
	opts.Transport = tr
	r, err := runWith(g, a, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wantStates(t, SSSPCosts(r, 4), []IntervalValue{
		{ival.New(6, 9), 7}, {ival.From(9), 5},
	}, "E over TCP")
	if r.Metrics.Messages != 6 {
		t.Errorf("messages = %d, want 6", r.Metrics.Messages)
	}
}
