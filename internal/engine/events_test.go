package engine_test

import (
	"reflect"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// TestRunEventSequence pins the order Run reports a superstep in: its
// superstep_start; the compute phase of every worker, in worker order; over
// a Transport, every worker's ship phase; every worker's exchange phase; its
// superstep_end.
func TestRunEventSequence(t *testing.T) {
	type event struct {
		kind              string
		superstep, worker int
		phase             string
	}
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"in process", false}, {"transport", true}} {
		t.Run(tc.name, func(t *testing.T) {
			a := &algorithms.SSSP{Source: 0, StartTime: 0}
			opts := a.Options()
			opts.NumWorkers = 2
			rec := &obs.Recorder{}
			opts.Tracer = rec
			phases := []string{"compute", "exchange"}
			if tc.tcp {
				tr, err := engine.NewTCPTransport(2)
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				opts.Transport = tr
				phases = []string{"compute", "ship", "exchange"}
			}
			if _, err := core.Run(tgraph.TransitExample(), a, opts); err != nil {
				t.Fatal(err)
			}
			var got, want []event
			for _, e := range rec.Events() {
				switch e := e.(type) {
				case obs.SuperstepStart:
					got = append(got, event{kind: e.Kind(), superstep: e.Superstep})
					want = append(want, event{kind: e.Kind(), superstep: e.Superstep})
					for _, ph := range phases {
						for w := 0; w < 2; w++ {
							want = append(want, event{"worker_phase", e.Superstep, w, ph})
						}
					}
					want = append(want, event{kind: "superstep_end", superstep: e.Superstep})
				case obs.WorkerPhase:
					got = append(got, event{e.Kind(), e.Superstep, e.Worker, e.Phase})
				case obs.SuperstepEnd:
					got = append(got, event{kind: e.Kind(), superstep: e.Superstep})
				}
			}
			if len(want) == 0 {
				t.Fatal("no superstep traced")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("event sequence\n  got  %v\n  want %v", got, want)
			}
			if err := obs.ValidateTrace(rec.Events()); err != nil {
				t.Errorf("trace does not validate: %v", err)
			}
		})
	}
}
