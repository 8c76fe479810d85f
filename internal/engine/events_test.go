package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// TestRunEventSequence pins the order Run closes a superstep in, the order a
// merged cluster timeline has: its superstep_start; its superstep_end; every
// shard's shard_step, in shard order; the cluster_step holding those records.
// The records' clocks are those DESIGN §7 defines: compute+ plus wait is the
// same wall for every shard, within the superstep's compute+ and messaging;
// delivery is timed, within messaging; only a Transport ships. The trace
// merges with itself as a cluster trace does with its workers': each row
// holds the records traced before it.
func TestRunEventSequence(t *testing.T) {
	type event struct {
		kind             string
		superstep, shard int
	}
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"in process", false}, {"transport", true}} {
		tcp := tc.tcp
		t.Run(tc.name, func(t *testing.T) {
			for workers := 1; workers <= 3; workers++ {
				t.Run(fmt.Sprintf("%d workers", workers), func(t *testing.T) {
					a := &algorithms.SSSP{Source: 0, StartTime: 0}
					opts := a.Options()
					opts.NumWorkers = workers
					opts.Span = "events"
					rec := &obs.Recorder{}
					opts.Tracer = rec
					if tcp {
						tr, err := engine.NewTCPTransport(workers)
						if err != nil {
							t.Fatal(err)
						}
						defer tr.Close()
						opts.Transport = tr
					}
					if _, err := core.Run(tgraph.TransitExample(), a, opts); err != nil {
						t.Fatal(err)
					}
					events := rec.Events()
					var got, want []event
					var end obs.SuperstepEnd
					var steps []obs.ShardStep
					for _, e := range events {
						switch e := e.(type) {
						case obs.SuperstepStart:
							got = append(got, event{e.Kind(), e.Superstep, -1})
							want = append(want, event{e.Kind(), e.Superstep, -1}, event{"superstep_end", e.Superstep, -1})
							for w := 0; w < workers; w++ {
								want = append(want, event{"shard_step", e.Superstep, w})
							}
							want = append(want, event{"cluster_step", e.Superstep, -1})
						case obs.SuperstepEnd:
							got = append(got, event{e.Kind(), e.Superstep, -1})
							end, steps = e, nil
						case obs.ShardStep:
							got = append(got, event{e.Kind(), e.Superstep, e.Shard})
							steps = append(steps, e)
							checkRecord(t, e, end, tcp && workers > 1)
							if wall := steps[0].ComputeNS + steps[0].WaitNS; e.ComputeNS+e.WaitNS != wall {
								t.Errorf("superstep %d: shard %d compute+wait %d, shard 0's %d",
									e.Superstep, e.Shard, e.ComputeNS+e.WaitNS, wall)
							}
						case obs.ClusterStep:
							got = append(got, event{e.Kind(), e.Superstep, -1})
						}
					}
					if len(want) == 0 {
						t.Fatal("no superstep traced")
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("event sequence\n  got  %v\n  want %v", got, want)
					}
					if err := obs.ValidateTrace(events); err != nil {
						t.Errorf("trace does not validate: %v", err)
					}
					if _, err := obs.MergeClusterTrace(events, [][]obs.Event{events}); err != nil {
						t.Errorf("trace does not merge with itself: %v", err)
					}
				})
			}
		})
	}
}

// checkRecord holds one shard's record to the superstep_end before it.
func checkRecord(t *testing.T, st obs.ShardStep, end obs.SuperstepEnd, ships bool) {
	t.Helper()
	if st.Superstep != end.Superstep || st.Span != "events" || st.Epoch != 0 || st.RelayNS != 0 || st.RelayBytes != 0 {
		t.Errorf("superstep %d: record %+v", end.Superstep, st)
	}
	if st.ComputeNS <= 0 || st.WaitNS < 0 || st.ComputeNS+st.WaitNS > end.ComputeNS+end.MessagingNS {
		t.Errorf("superstep %d shard %d: compute %d + wait %d outside the superstep's compute+ %d + messaging %d",
			st.Superstep, st.Shard, st.ComputeNS, st.WaitNS, end.ComputeNS, end.MessagingNS)
	}
	if st.DeliverNS <= 0 || st.DeliverNS > end.MessagingNS {
		t.Errorf("superstep %d shard %d: deliver %d outside (0, messaging %d]",
			st.Superstep, st.Shard, st.DeliverNS, end.MessagingNS)
	}
	if ships != (st.DirectBytes > 0) {
		t.Errorf("superstep %d shard %d: shipped %d bytes in %d ns", st.Superstep, st.Shard, st.DirectBytes, st.PeerSendNS)
	}
}
