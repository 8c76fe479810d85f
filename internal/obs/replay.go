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
	case "superstep_end":
		return &SuperstepEnd{}
	case "warp":
		return &WarpStats{}
	case "checkpoint":
		return &Checkpoint{}
	case "recovery":
		return &Recovery{}
	case "run_end":
		return &RunEnd{}
	case "worker_join":
		return &WorkerJoin{}
	case "worker_lost":
		return &WorkerLost{}
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
	case *SuperstepEnd:
		return *v
	case *WarpStats:
		return *v
	case *Checkpoint:
		return *v
	case *Recovery:
		return *v
	case *RunEnd:
		return *v
	case *WorkerJoin:
		return *v
	case *WorkerLost:
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
// types are an error: the schema is versioned by this package. The two kinds
// it retired, worker_phase (now shard_step) and cluster_recovery (now
// recovery), are skipped, so an archived trace still parses.
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
		if tag.Type == "worker_phase" || tag.Type == "cluster_recovery" {
			continue
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

// SplitRuns splits an event stream into per-run slices, each from a
// run_start to its run_end — graphite-bench appends every ICM run to a single
// trace file, so a parsed file may hold many runs. Events outside a run are
// dropped: those before the first run_start (a coordinator's worker_join),
// and those between a run_end and the next run_start (a worker lost after
// its last frame). A run cut short keeps what it has, and fails validation.
func SplitRuns(events []Event) [][]Event {
	var runs [][]Event
	in := false
	for _, e := range events {
		if _, ok := e.(RunStart); ok {
			runs, in = append(runs, nil), true
		}
		if !in {
			continue
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], e)
		if _, ok := e.(RunEnd); ok {
			in = false
		}
	}
	return runs
}

// SuperstepRow is one superstep of a trace summary: the paper-style
// breakdown row — the superstep_end's compute+ / messaging / barrier splits
// and primitive counts, warp behaviour, fault events — and, from the
// superstep's cluster_step, the driver's wall time, the shards' summed wait
// and relay clocks, the slowest shard and the skew.
type SuperstepRow struct {
	Superstep int
	Totals
	Wall         time.Duration
	Wait         time.Duration
	Relay        time.Duration
	Slowest      int
	SkewMilli    int64 // 0 when the trace has no cluster_step for the superstep
	ActiveBefore int
	ActiveAfter  int
	Warp         *WarpStats
	Checkpoint   bool
	Recoveries   int // replays of this superstep that were rolled back
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
			r.Totals, r.ActiveAfter = ev.Totals, ev.Active
		case ClusterStep:
			r, sum := row(ev.Superstep), ev.Total()
			r.Wall, r.Wait, r.Relay = time.Duration(ev.WallNS), time.Duration(sum.WaitNS), time.Duration(sum.RelayNS)
			r.Slowest, r.SkewMilli = ev.SlowestShard, ev.SkewMilli
		case WarpStats:
			v := ev
			row(ev.Superstep).Warp = &v
		case Checkpoint:
			row(ev.Superstep).Checkpoint = true
		case Recovery:
			row(ev.Failed).Recoveries++
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
		fmt.Fprintf(w, "run: %d vertices, %d workers", s.Start.Vertices, s.Start.Workers)
		if s.Start.Span != "" {
			fmt.Fprintf(w, ", span=%s", s.Start.Span)
		}
		fmt.Fprintln(w)
	}
	t := stats.Table{Header: []string{
		"Step", "Compute+", "Messaging", "Barrier", "Wall", "Wait", "Relay", "Slowest", "Skew",
		"Calls", "Scatter", "Msgs", "Bytes", "Active", "Warp", "Supp", "Unit%", "Events",
	}}
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	var wall, wait, relay time.Duration
	for _, r := range s.Rows {
		wall, wait, relay = wall+r.Wall, wait+r.Wait, relay+r.Relay
		slowest, skew := "-", "-"
		if r.SkewMilli != 0 {
			slowest = fmt.Sprintf("shard %d", r.Slowest)
			skew = fmt.Sprintf("%.2f×", float64(r.SkewMilli)/1000)
		}
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
			events += fmt.Sprintf("recover×%d", r.Recoveries)
		}
		t.Add(r.Superstep,
			us(time.Duration(r.ComputeNS)), us(time.Duration(r.MessagingNS)), us(time.Duration(r.BarrierNS)),
			us(r.Wall), us(r.Wait), us(r.Relay), slowest, skew,
			r.ComputeCalls, r.ScatterCalls, r.Messages, r.MessageBytes, r.ActiveAfter, warp, supp, unit, events)
	}
	if e := s.End; e != nil {
		t.Add("total",
			us(time.Duration(e.ComputeNS)), us(time.Duration(e.MessagingNS)), us(time.Duration(e.BarrierNS)),
			us(wall), us(wait), us(relay), "-", "-",
			e.ComputeCalls, e.ScatterCalls, e.Messages, e.MessageBytes,
			"-", "-", "-", "-",
			fmt.Sprintf("makespan=%v", us(time.Duration(e.MakespanNS))))
	}
	t.Render(w)
}

// ValidateTrace checks a parsed trace against the schema contract: a
// run_start first and a run_end last, exactly one superstep_start and
// superstep_end per executed superstep, each superstep's record within the
// ledger's rules (Totals.Check), and — the reconciliation
// the acceptance tests rely on — per-superstep sums of the ledger's counts
// and clocks exactly equal to the run_end totals.
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
	var sum Totals
	for step := 1; step <= end.Supersteps; step++ {
		ev, ok := ends[step]
		if !ok {
			return fmt.Errorf("obs: superstep %d missing from trace", step)
		}
		if !started[step] {
			return fmt.Errorf("obs: superstep %d ended without a superstep_start", step)
		}
		// A trace does not say whether a combiner ran, so only the bound
		// on delivered holds. Every message sent encodes its interval in at
		// least one byte, and its size counts those bytes.
		if err := ev.Totals.Check(true, &ev.Intervals); err != nil {
			return fmt.Errorf("obs: superstep %d: %w", step, err)
		}
		sum.Add(ev.Totals)
	}
	got, want := sum.values(), end.Totals.values()
	keys := append(totalsKeys[:], "checkpoints", "recoveries")
	gotV := append(got[:], int64(checkpoints), int64(recoveries))
	wantV := append(want[:], int64(end.Checkpoints), int64(end.Recoveries))
	for i, key := range keys {
		if gotV[i] != wantV[i] {
			return fmt.Errorf("obs: trace does not reconcile: sum(%s) = %d, run_end total = %d",
				key, gotV[i], wantV[i])
		}
	}
	return nil
}
