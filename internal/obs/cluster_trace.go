package obs

import (
	"fmt"
	"io"
	"slices"
	"time"

	"graphite/internal/stats"
)

// Merging cluster traces. A cluster run writes N+1 JSONL traces: the
// coordinator's (run lifecycle, one ClusterStep per closed superstep,
// recoveries) and one per worker process (RunStart + one ShardStep per
// superstep it completed). A shard's ShardStep is one record: the worker
// writes it to its trace and sends it in its barrier report, and the
// coordinator keeps it, with its relay clock added, in the ClusterStep.
// MergeClusterTrace folds the traces into one timeline and checks that every
// record the coordinator kept, relay fields zeroed, is one a worker wrote —
// which catches mixed-up trace files, truncated worker traces and a record
// altered on its way — the distributed analogue of ValidateTrace's totals
// reconciliation.

// ClusterTrace is the merged, reconciled view of one cluster run.
type ClusterTrace struct {
	Span    string
	Workers int
	// Events is the coordinator timeline with each ClusterStep preceded by
	// the worker records it was checked against.
	Events []Event
	// Steps holds supersteps 1..n, each as its surviving (last) execution.
	Steps []ClusterStep
	// Recoveries counts coordinator-side recovery events in the timeline.
	Recoveries int
}

type shardStepKey struct {
	superstep, shard, epoch int
}

// MergeClusterTrace merges a coordinator trace with N worker traces into one
// cluster timeline. Worker traces may hold records the coordinator never kept
// (executions aborted by a rollback, reports from a worker that died before
// the coordinator closed the superstep); those are tolerated. A record the
// coordinator kept that no worker trace holds is an error.
func MergeClusterTrace(coord []Event, workers [][]Event) (*ClusterTrace, error) {
	ct := &ClusterTrace{}
	for _, e := range coord {
		if rs, ok := e.(RunStart); ok {
			ct.Span, ct.Workers = rs.Span, rs.Workers
			break
		}
	}
	if ct.Span == "" {
		return nil, fmt.Errorf("obs: coordinator trace has no run_start with a span id")
	}

	// Index the worker records. A worker writes at most one per (superstep,
	// shard, epoch), but a replacement worker replays with the same epoch as
	// the survivors, so keep a list.
	byKey := map[shardStepKey][]ShardStep{}
	for i, w := range workers {
		for _, e := range w {
			switch ev := e.(type) {
			case RunStart:
				if ev.Span != ct.Span {
					return nil, fmt.Errorf("obs: worker trace %d opens span %q, coordinator run is span %q",
						i, ev.Span, ct.Span)
				}
			case ShardStep:
				if ev.Span != ct.Span {
					return nil, fmt.Errorf("obs: worker trace %d: shard_step superstep %d shard %d carries span %q, want %q",
						i, ev.Superstep, ev.Shard, ev.Span, ct.Span)
				}
				k := shardStepKey{ev.Superstep, ev.Shard, ev.Epoch}
				byKey[k] = append(byKey[k], ev)
			}
		}
	}

	// Walk the coordinator timeline: check each closed superstep's records,
	// splice them in before it, and keep the last execution of each superstep.
	rows := map[int]ClusterStep{}
	for _, e := range coord {
		switch ev := e.(type) {
		case ClusterStep:
			for _, rec := range ev.Shards {
				rec.RelayNS, rec.RelayBytes = 0, 0
				if !slices.Contains(byKey[shardStepKey{rec.Superstep, rec.Shard, rec.Epoch}], rec) {
					return nil, fmt.Errorf("obs: superstep %d: no worker trace holds the report the coordinator recorded: %+v",
						ev.Superstep, rec)
				}
				ct.Events = append(ct.Events, rec)
			}
			rows[ev.Superstep] = ev
		case Recovery:
			ct.Recoveries++
		}
		ct.Events = append(ct.Events, e)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("obs: coordinator trace has no cluster_step records")
	}
	var err error
	ct.Steps, err = inOrder(rows)
	if err != nil {
		return nil, err
	}
	return ct, nil
}

// Render prints the merged cluster timeline as a per-superstep straggler
// attribution table.
func (ct *ClusterTrace) Render(w io.Writer) {
	fmt.Fprintf(w, "cluster run: span=%s workers=%d recoveries=%d\n",
		ct.Span, ct.Workers, ct.Recoveries)
	t := stats.Table{Header: []string{
		"Step", "Wall", "Compute", "Wait", "Relay", "Slowest", "Skew",
	}}
	us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	var wall int64
	var all ShardStep
	for _, s := range ct.Steps {
		sum := s.Total()
		wall += s.WallNS
		all.ComputeNS += sum.ComputeNS
		all.WaitNS += sum.WaitNS
		all.RelayNS += sum.RelayNS
		t.Add(s.Superstep, us(s.WallNS), us(sum.ComputeNS), us(sum.WaitNS), us(sum.RelayNS),
			fmt.Sprintf("shard %d", s.SlowestShard),
			fmt.Sprintf("%.2f×", float64(s.SkewMilli)/1000))
	}
	t.Add("total", us(wall), us(all.ComputeNS), us(all.WaitNS), us(all.RelayNS), "-", "-")
	t.Render(w)
}
