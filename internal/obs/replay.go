package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"graphite/internal/stats"
)

// eventTypes maps the JSONL "type" tag to a fresh concrete event. Kept in
// one place so the parser, the validator and the schema docs cannot drift.
func newEventOf(kind string) Event {
	switch kind {
	case "run_start":
		return &RunStart{}
	case "superstep_start":
		return &SuperstepStart{}
	case "worker_phase":
		return &WorkerPhase{}
	case "superstep_end":
		return &SuperstepEnd{}
	case "warp":
		return &WarpStats{}
	case "checkpoint":
		return &Checkpoint{}
	case "recovery":
		return &Recovery{}
	case "send_retry":
		return &SendRetry{}
	case "run_end":
		return &RunEnd{}
	case "worker_join":
		return &WorkerJoin{}
	case "worker_lost":
		return &WorkerLost{}
	case "cluster_recovery":
		return &ClusterRecovery{}
	case "shard_step":
		return &ShardStep{}
	case "cluster_step":
		return &ClusterStep{}
	case "epoch_publish":
		return &EpochPublish{}
	case "wal_replay":
		return &WALReplay{}
	case "wal_compact":
		return &WALCompact{}
	}
	return nil
}

// deref returns the value an event pointer points at, so parsed events
// compare and switch like emitted ones.
func deref(e Event) Event {
	switch v := e.(type) {
	case *RunStart:
		return *v
	case *SuperstepStart:
		return *v
	case *WorkerPhase:
		return *v
	case *SuperstepEnd:
		return *v
	case *WarpStats:
		return *v
	case *Checkpoint:
		return *v
	case *Recovery:
		return *v
	case *SendRetry:
		return *v
	case *RunEnd:
		return *v
	case *WorkerJoin:
		return *v
	case *WorkerLost:
		return *v
	case *ClusterRecovery:
		return *v
	case *ShardStep:
		return *v
	case *ClusterStep:
		return *v
	case *EpochPublish:
		return *v
	case *WALReplay:
		return *v
	case *WALCompact:
		return *v
	}
	return e
}

// ParseTrace reads a JSONL trace back into typed events. Unknown event
// types are an error: the schema is versioned by this package.
func ParseTrace(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tag struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &tag); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		ev := newEventOf(tag.Type)
		if ev == nil {
			return nil, fmt.Errorf("obs: trace line %d: unknown event type %q", lineNo, tag.Type)
		}
		if err := json.Unmarshal(line, ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d (%s): %w", lineNo, tag.Type, err)
		}
		out = append(out, deref(ev))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return out, nil
}

// SplitRuns splits an event stream into per-run slices, one per run_start
// — graphite-bench appends every ICM run to a single trace file, so a
// parsed file may hold many runs. Events before the first run_start are
// dropped (a well-formed trace has none).
func SplitRuns(events []Event) [][]Event {
	var runs [][]Event
	for _, e := range events {
		if _, ok := e.(RunStart); ok {
			runs = append(runs, nil)
		}
		if len(runs) == 0 {
			continue
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], e)
	}
	return runs
}

// SuperstepRow is one superstep of a trace summary: the paper-style
// breakdown row (compute+ / messaging / barrier splits, primitive counts,
// warp behaviour, fault events).
type SuperstepRow struct {
	Superstep    int
	Compute      time.Duration
	Messaging    time.Duration
	Barrier      time.Duration
	ComputeCalls int64
	ScatterCalls int64
	Messages     int64
	MessageBytes int64
	ActiveBefore int
	ActiveAfter  int
	Warp         *WarpStats
	Checkpoint   bool
	Recoveries   int // replays of this superstep that were rolled back
	SendRetries  int
}

// Summary aggregates a trace into per-superstep rows plus the run frame.
// A superstep that was rolled back and replayed appears once, with the
// metrics of its successful execution (matching how the engine's totals
// discard aborted partials) and its Recoveries count.
type Summary struct {
	Start *RunStart
	End   *RunEnd
	Rows  []SuperstepRow
}

// Summarize folds a parsed trace into a Summary.
func Summarize(events []Event) (*Summary, error) {
	s := &Summary{}
	byStep := map[int]*SuperstepRow{}
	row := func(step int) *SuperstepRow {
		r := byStep[step]
		if r == nil {
			r = &SuperstepRow{Superstep: step}
			byStep[step] = r
		}
		return r
	}
	for _, e := range events {
		switch ev := e.(type) {
		case RunStart:
			v := ev
			s.Start = &v
		case RunEnd:
			v := ev
			s.End = &v
		case SuperstepStart:
			row(ev.Superstep).ActiveBefore = ev.Active
		case SuperstepEnd:
			r := row(ev.Superstep)
			r.Compute = time.Duration(ev.ComputeNS)
			r.Messaging = time.Duration(ev.MessagingNS)
			r.Barrier = time.Duration(ev.BarrierNS)
			r.ComputeCalls = ev.ComputeCalls
			r.ScatterCalls = ev.ScatterCalls
			r.Messages = ev.Messages
			r.MessageBytes = ev.MessageBytes
			r.ActiveAfter = ev.Active
		case WarpStats:
			v := ev
			row(ev.Superstep).Warp = &v
		case Checkpoint:
			row(ev.Superstep).Checkpoint = true
		case Recovery:
			row(ev.Failed).Recoveries++
		case SendRetry:
			row(ev.Superstep).SendRetries++
		}
	}
	// Replayed supersteps overwrote their metric fields in place, so each
	// row reflects the successful execution, as the engine's totals do.
	rows, err := inOrder(byStep)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		s.Rows = append(s.Rows, *r)
	}
	return s, nil
}

// inOrder returns the rows of supersteps 1..n, where n is how many rows there
// are, in order; a row numbered outside 1..n leaves one of them missing, which
// is an error.
func inOrder[T any](rows map[int]T) ([]T, error) {
	out := make([]T, 0, len(rows))
	for step := 1; step <= len(rows); step++ {
		r, ok := rows[step]
		if !ok {
			return nil, fmt.Errorf("obs: superstep %d missing: the trace's %d supersteps are not numbered 1..%d",
				step, len(rows), len(rows))
		}
		out = append(out, r)
	}
	return out, nil
}

// Render prints the summary as the per-superstep breakdown table.
func (s *Summary) Render(w io.Writer) {
	if s.Start != nil {
		fmt.Fprintf(w, "run: %d vertices, %d workers\n", s.Start.Vertices, s.Start.Workers)
	}
	t := stats.Table{Header: []string{
		"Step", "Compute+", "Messaging", "Barrier", "Calls", "Scatter",
		"Msgs", "Bytes", "Active", "Warp", "Supp", "Unit%", "Events",
	}}
	for _, r := range s.Rows {
		warp, supp, unit := "-", "-", "-"
		if r.Warp != nil {
			warp = fmt.Sprintf("%d", r.Warp.WarpCalls)
			supp = fmt.Sprintf("%d", r.Warp.Suppressed)
			unit = fmt.Sprintf("%.0f%%", 100*r.Warp.UnitFraction)
		}
		events := ""
		if r.Checkpoint {
			events += "ckpt "
		}
		if r.Recoveries > 0 {
			events += fmt.Sprintf("recover×%d ", r.Recoveries)
		}
		if r.SendRetries > 0 {
			events += fmt.Sprintf("retry×%d", r.SendRetries)
		}
		t.Add(r.Superstep,
			r.Compute.Round(time.Microsecond), r.Messaging.Round(time.Microsecond),
			r.Barrier.Round(time.Microsecond), r.ComputeCalls, r.ScatterCalls,
			r.Messages, r.MessageBytes, r.ActiveAfter, warp, supp, unit, events)
	}
	if e := s.End; e != nil {
		t.Add("total",
			time.Duration(e.ComputeNS).Round(time.Microsecond),
			time.Duration(e.MessagingNS).Round(time.Microsecond),
			time.Duration(e.BarrierNS).Round(time.Microsecond),
			e.ComputeCalls, e.ScatterCalls, e.Messages, e.MessageBytes,
			"-", "-", "-", "-",
			fmt.Sprintf("makespan=%v", time.Duration(e.MakespanNS).Round(time.Microsecond)))
	}
	t.Render(w)
}

// ValidateTrace checks a parsed trace against the schema contract: a
// run_start first and a run_end last, exactly one superstep_start and
// superstep_end per executed superstep, and — the reconciliation the
// acceptance tests rely on — per-superstep sums of durations and counters
// exactly equal to the run_end totals.
func ValidateTrace(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("obs: empty trace")
	}
	if _, ok := events[0].(RunStart); !ok {
		return fmt.Errorf("obs: trace must open with run_start, got %s", events[0].Kind())
	}
	end, ok := events[len(events)-1].(RunEnd)
	if !ok {
		return fmt.Errorf("obs: trace must close with run_end, got %s", events[len(events)-1].Kind())
	}
	// Replay semantics: a Recovery{ResumeAt: j} rewinds the engine's totals
	// to the checkpoint before superstep j, and supersteps >= j re-execute
	// and re-emit. Mirror the rewind: drop accumulated per-superstep ends
	// at or past the resume point, keep only each superstep's surviving
	// execution. Checkpoint and recovery counts are never rewound.
	ends := map[int]SuperstepEnd{}
	started := map[int]bool{}
	var checkpoints, recoveries int
	for _, e := range events {
		switch ev := e.(type) {
		case SuperstepStart:
			started[ev.Superstep] = true
		case SuperstepEnd:
			ends[ev.Superstep] = ev
		case Checkpoint:
			checkpoints++
		case Recovery:
			recoveries++
			for step := range ends {
				if step >= ev.ResumeAt {
					delete(ends, step)
				}
			}
		}
	}
	if len(ends) != end.Supersteps {
		return fmt.Errorf("obs: %d surviving supersteps in trace, run_end says %d", len(ends), end.Supersteps)
	}
	var sum RunEnd
	for step := 1; step <= end.Supersteps; step++ {
		ev, ok := ends[step]
		if !ok {
			return fmt.Errorf("obs: superstep %d missing from trace", step)
		}
		if !started[step] {
			return fmt.Errorf("obs: superstep %d ended without a superstep_start", step)
		}
		sum.ComputeCalls += ev.ComputeCalls
		sum.ScatterCalls += ev.ScatterCalls
		sum.Messages += ev.Messages
		sum.MessageBytes += ev.MessageBytes
		sum.Delivered += ev.Delivered
		sum.ComputeNS += ev.ComputeNS
		sum.MessagingNS += ev.MessagingNS
		sum.BarrierNS += ev.BarrierNS
	}
	sum.Checkpoints, sum.Recoveries = checkpoints, recoveries
	type cmp struct {
		name      string
		got, want int64
	}
	for _, c := range []cmp{
		{"compute_calls", sum.ComputeCalls, end.ComputeCalls},
		{"scatter_calls", sum.ScatterCalls, end.ScatterCalls},
		{"messages", sum.Messages, end.Messages},
		{"message_bytes", sum.MessageBytes, end.MessageBytes},
		{"delivered", sum.Delivered, end.Delivered},
		{"checkpoints", int64(sum.Checkpoints), int64(end.Checkpoints)},
		{"recoveries", int64(sum.Recoveries), int64(end.Recoveries)},
		{"compute_ns", sum.ComputeNS, end.ComputeNS},
		{"messaging_ns", sum.MessagingNS, end.MessagingNS},
		{"barrier_ns", sum.BarrierNS, end.BarrierNS},
	} {
		if c.got != c.want {
			return fmt.Errorf("obs: trace does not reconcile: sum(%s) = %d, run_end total = %d",
				c.name, c.got, c.want)
		}
	}
	return nil
}
