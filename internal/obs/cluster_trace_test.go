package obs_test

import (
	"strings"
	"testing"

	"graphite/internal/obs"
)

// Synthetic cluster-trace builders: a 2-shard fleet, parameterized per
// superstep by each shard's compute time (wait derived from it so the records
// have non-trivial numbers to match).

func coordStep(span string, step, epoch int, computes []int64) obs.ClusterStep {
	cs := obs.ClusterStep{Span: span, Superstep: step, Epoch: epoch}
	var sumC int64
	for s, c := range computes {
		rec := workerStep(span, step, s, epoch, c)
		rec.RelayNS = 10 // the coordinator's own clock
		cs.Shards = append(cs.Shards, rec)
		cs.WallNS = max(cs.WallNS, c+c/2)
		sumC += c
		if c > computes[cs.SlowestShard] {
			cs.SlowestShard = s
		}
	}
	cs.SkewMilli = computes[cs.SlowestShard] * 1000 * int64(len(computes)) / sumC
	return cs
}

func workerStep(span string, step, shard, epoch int, compute int64) obs.ShardStep {
	return obs.ShardStep{
		Span: span, Superstep: step, Shard: shard, Epoch: epoch,
		ComputeNS: compute, WaitNS: compute / 2, DeliverNS: 5,
	}
}

// cleanCluster builds a fault-free 2-shard, 2-superstep cluster trace set.
func cleanCluster(span string) (coord []obs.Event, workers [][]obs.Event) {
	coord = []obs.Event{obs.RunStart{Vertices: 10, Workers: 2, Span: span}}
	coord = append(coord, coordStep(span, 1, 0, []int64{100, 200}))
	coord = append(coord, coordStep(span, 2, 0, []int64{300, 150}))
	coord = append(coord, obs.RunEnd{Supersteps: 2})
	for shard := 0; shard < 2; shard++ {
		w := []obs.Event{obs.RunStart{Vertices: 10, Workers: 2, Span: span}}
		w = append(w,
			workerStep(span, 1, shard, 0, []int64{100, 200}[shard]),
			workerStep(span, 2, shard, 0, []int64{300, 150}[shard]))
		workers = append(workers, w)
	}
	return coord, workers
}

func TestMergeClusterTraceCleanRun(t *testing.T) {
	coord, workers := cleanCluster("span-a")
	ct, err := obs.MergeClusterTrace(coord, workers)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Span != "span-a" || ct.Workers != 2 || ct.Recoveries != 0 {
		t.Errorf("header span=%q workers=%d recoveries=%d, want span-a/2/0", ct.Span, ct.Workers, ct.Recoveries)
	}
	if len(ct.Steps) != 2 {
		t.Fatalf("%d steps, want 2", len(ct.Steps))
	}
	for i, row := range ct.Steps {
		if row.Superstep != i+1 || len(row.Shards) != 2 {
			t.Errorf("step %d: superstep %d with %d shard records; want %d and 2", i, row.Superstep, len(row.Shards), i+1)
		}
	}
	if got := ct.Steps[1].SlowestShard; got != 0 {
		t.Errorf("superstep 2 slowest shard = %d, want 0", got)
	}
	// The merged timeline splices the worker records, as the workers wrote
	// them, immediately before their ClusterStep.
	for i, e := range ct.Events {
		if cs, ok := e.(obs.ClusterStep); ok {
			for j, st := range cs.Shards {
				st.RelayNS = 0
				if prev, ok := ct.Events[i-len(cs.Shards)+j].(obs.ShardStep); !ok || prev != st {
					t.Errorf("superstep %d ClusterStep not preceded by shard %d's record (got %#v)",
						cs.Superstep, j, ct.Events[i-len(cs.Shards)+j])
				}
			}
		}
	}
	var sb strings.Builder
	ct.Render(&sb)
	if !strings.Contains(sb.String(), "span=span-a workers=2 recoveries=0") {
		t.Errorf("render header missing:\n%s", sb.String())
	}
}

// TestMergeClusterTraceReplay: a superstep re-executed after a rollback is
// represented by its surviving (epoch-1) execution; the aborted epoch-0
// reports in the worker traces are tolerated extras.
func TestMergeClusterTraceReplay(t *testing.T) {
	span := "span-r"
	coord := []obs.Event{obs.RunStart{Vertices: 10, Workers: 2, Span: span}}
	coord = append(coord, coordStep(span, 1, 0, []int64{100, 200}))
	// Superstep 2 first executes at epoch 0... then the coordinator loses a
	// worker before closing it (no ClusterStep), recovers, and replays.
	coord = append(coord, obs.Recovery{Failed: 2, ResumeAt: 2, Attempt: 1, Reason: "worker_lost"})
	coord = append(coord, coordStep(span, 2, 1, []int64{310, 160}))
	coord = append(coord, obs.RunEnd{Supersteps: 2, Recoveries: 1})

	var workers [][]obs.Event
	for shard := 0; shard < 2; shard++ {
		w := []obs.Event{obs.RunStart{Vertices: 10, Workers: 2, Span: span}}
		w = append(w, workerStep(span, 1, shard, 0, []int64{100, 200}[shard]))
		if shard == 0 {
			// The surviving worker finished the aborted epoch-0 execution.
			w = append(w, workerStep(span, 2, shard, 0, 999))
		}
		w = append(w, workerStep(span, 2, shard, 1, []int64{310, 160}[shard]))
		workers = append(workers, w)
	}
	ct, err := obs.MergeClusterTrace(coord, workers)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", ct.Recoveries)
	}
	if len(ct.Steps) != 2 {
		t.Fatalf("%d steps, want 2", len(ct.Steps))
	}
	row := ct.Steps[1]
	if row.Epoch != 1 || row.Total().ComputeNS != 470 {
		t.Errorf("surviving superstep 2 = %+v, want epoch 1 compute 470", row)
	}
	for _, ss := range row.Shards {
		if ss.Epoch != 1 {
			t.Errorf("superstep 2 matched an epoch-%d report: %+v", ss.Epoch, ss)
		}
	}
}

func TestMergeClusterTraceRejections(t *testing.T) {
	span := "span-x"
	for _, tc := range []struct {
		name string
		mut  func(coord []obs.Event, workers [][]obs.Event) ([]obs.Event, [][]obs.Event)
		want string
	}{
		{"no span", func(c []obs.Event, w [][]obs.Event) ([]obs.Event, [][]obs.Event) {
			c[0] = obs.RunStart{Vertices: 10, Workers: 2} // span dropped
			return c, w
		}, "no run_start with a span id"},
		{"worker span mismatch", func(c []obs.Event, w [][]obs.Event) ([]obs.Event, [][]obs.Event) {
			w[1][0] = obs.RunStart{Vertices: 10, Workers: 2, Span: "other"}
			return c, w
		}, "opens span"},
		{"missing worker report", func(c []obs.Event, w [][]obs.Event) ([]obs.Event, [][]obs.Event) {
			w[1] = w[1][:2] // drop shard 1's superstep-2 report
			return c, w
		}, "no worker trace holds the report"},
		{"compute mismatch", func(c []obs.Event, w [][]obs.Event) ([]obs.Event, [][]obs.Event) {
			ss := w[0][1].(obs.ShardStep)
			ss.ComputeNS++
			w[0][1] = ss
			return c, w
		}, "no worker trace holds the report"},
		// Every field of the record is checked, not only the compute and
		// wait clocks: the coordinator altering a shard's deliver time is
		// a record no worker wrote.
		{"deliver mismatch", func(c []obs.Event, w [][]obs.Event) ([]obs.Event, [][]obs.Event) {
			cs := c[2].(obs.ClusterStep)
			cs.Shards = append([]obs.ShardStep(nil), cs.Shards...)
			cs.Shards[1].DeliverNS = 0
			c[2] = cs
			return c, w
		}, "superstep 2: no worker trace holds the report"},
		{"no attribution", func(c []obs.Event, w [][]obs.Event) ([]obs.Event, [][]obs.Event) {
			return []obs.Event{c[0], c[len(c)-1]}, w
		}, "no cluster_step records"},
		{"gap", func(c []obs.Event, w [][]obs.Event) ([]obs.Event, [][]obs.Event) {
			return []obs.Event{c[0], c[2], c[3]}, w
		}, "superstep 1 missing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, workers := cleanCluster(span)
			coord, workers = tc.mut(coord, workers)
			_, err := obs.MergeClusterTrace(coord, workers)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}
