package obs

import (
	"fmt"
	"sync"

	"graphite/internal/codec"
)

// Event is one typed trace record. Concrete events are the structs below;
// Kind returns the stable snake_case tag the JSONL schema uses.
type Event interface {
	Kind() string
}

// Tracer receives the event stream of a run. The engine emits superstep
// lifecycle events from the coordinating goroutine in a deterministic
// order, but retry events fire from worker goroutines, so implementations
// must be safe for concurrent use. A nil Tracer disables tracing with zero
// overhead (no events are constructed).
type Tracer interface {
	Emit(e Event)
}

// RunStart opens a run: the shape of the computation. Span, when set, is
// the run-scoped span ID (NewSpanID) minted by whoever admitted the query;
// every distributed trace of the same run opens with the same span.
type RunStart struct {
	Vertices    int    `json:"vertices"`
	Workers     int    `json:"workers"`
	Checkpoints bool   `json:"checkpoints,omitempty"` // checkpointing enabled
	Span        string `json:"span,omitempty"`
}

// Kind implements Event.
func (RunStart) Kind() string { return "run_start" }

// SuperstepStart opens one superstep, before the compute phase.
type SuperstepStart struct {
	Superstep int `json:"superstep"`
	Active    int `json:"active"` // vertices entering the compute phase
}

// Kind implements Event.
func (SuperstepStart) Kind() string { return "superstep_start" }

// IntervalBytes splits interval-encoded bytes by codec class (Sec. VI
// "Interval Messages"): the unit/unbounded flag classes are what produce
// the paper's 59-78% message-size reduction.
type IntervalBytes struct {
	Unit      int64 `json:"unit,omitempty"`
	Unbounded int64 `json:"unbounded,omitempty"`
	General   int64 `json:"general,omitempty"`
	Empty     int64 `json:"empty,omitempty"`
}

// AddClass adds n bytes to class c's field, the one place a codec class
// names its field.
func (b *IntervalBytes) AddClass(c codec.IntervalClass, n int64) {
	switch c {
	case codec.ClassUnit:
		b.Unit += n
	case codec.ClassUnbounded:
		b.Unbounded += n
	case codec.ClassGeneral:
		b.General += n
	case codec.ClassEmpty:
		b.Empty += n
	}
}

// Add adds o's bytes to b, class by class.
func (b *IntervalBytes) Add(o IntervalBytes) {
	b.Unit += o.Unit
	b.Unbounded += o.Unbounded
	b.General += o.General
	b.Empty += o.Empty
}

// Totals is the superstep ledger: the paper's counts and phase clocks
// (Sec. VII-B2), of one superstep in a SuperstepEnd and summed over a run in
// a RunEnd and in the barrier's totals. Messages counts what the program
// sent, the paper's count; Delivered counts what reached an inbox: the
// messages sent, less those a worker folded into another under the run's
// combiner before handing its batches over. Without a combiner the two are
// equal. Spilled counts the sent messages whose payload travelled in a spill
// table.
type Totals struct {
	ComputeCalls int64 `json:"compute_calls"`
	ScatterCalls int64 `json:"scatter_calls"`
	Messages     int64 `json:"messages"`
	MessageBytes int64 `json:"message_bytes"`
	Delivered    int64 `json:"delivered"`
	Spilled      int64 `json:"spilled,omitempty"`
	ComputeNS    int64 `json:"compute_ns"`
	MessagingNS  int64 `json:"messaging_ns"`
	BarrierNS    int64 `json:"barrier_ns"`
}

// Add adds o's counts and clocks to t.
func (t *Totals) Add(o Totals) {
	t.ComputeCalls += o.ComputeCalls
	t.ScatterCalls += o.ScatterCalls
	t.Messages += o.Messages
	t.MessageBytes += o.MessageBytes
	t.Delivered += o.Delivered
	t.Spilled += o.Spilled
	t.ComputeNS += o.ComputeNS
	t.MessagingNS += o.MessagingNS
	t.BarrierNS += o.BarrierNS
}

// totalsKeys are the JSON keys of Totals' fields, in the order values
// returns them.
var totalsKeys = [...]string{"compute_calls", "scatter_calls", "messages", "message_bytes",
	"delivered", "spilled", "compute_ns", "messaging_ns", "barrier_ns"}

// values returns t's fields in declaration order.
func (t Totals) values() [len(totalsKeys)]int64 {
	return [...]int64{t.ComputeCalls, t.ScatterCalls, t.Messages, t.MessageBytes,
		t.Delivered, t.Spilled, t.ComputeNS, t.MessagingNS, t.BarrierNS}
}

// Check holds t to the ledger's rules, wherever it was made: no more
// delivered than sent, and exactly as many when no combiner folds (folds
// false); no more spilled than sent; and, where iv records the superstep's
// interval bytes, at least one interval byte per message sent and no more
// than the messages' bytes.
func (t Totals) Check(folds bool, iv *IntervalBytes) error {
	switch {
	case t.Delivered > t.Messages:
		return fmt.Errorf("delivered %d exceeds messages %d", t.Delivered, t.Messages)
	case !folds && t.Delivered != t.Messages:
		return fmt.Errorf("delivered %d of %d messages with no combiner", t.Delivered, t.Messages)
	case t.Spilled > t.Messages:
		return fmt.Errorf("spilled %d exceeds messages %d", t.Spilled, t.Messages)
	}
	if iv != nil {
		if n := iv.Unit + iv.Unbounded + iv.General + iv.Empty; n < t.Messages || n > t.MessageBytes {
			return fmt.Errorf("interval_bytes total %d outside [messages %d, message_bytes %d]",
				n, t.Messages, t.MessageBytes)
		}
	}
	return nil
}

// SuperstepEnd closes one superstep at its barrier: the superstep's record
// in the ledger, whose fields summed over a fault-free trace equal the
// run_end totals exactly, plus the frontier after delivery and the interval
// bytes by class. A shard's share, without clocks, is what its
// engine.StepReport carries to the barrier, which sums the shares and adds
// the driver's phase clocks (engine.Barrier.SuperstepEnd); a cluster worker
// adds its own clocks to its own share. Either is published to a registry by
// EngineSeries.Publish.
type SuperstepEnd struct {
	Superstep int `json:"superstep"`
	Totals
	Active    int           `json:"active"` // vertices active after delivery
	Intervals IntervalBytes `json:"interval_bytes"`
}

// Kind implements Event.
func (SuperstepEnd) Kind() string { return "superstep_end" }

// WarpStats is the ICM runtime's per-superstep share of the warp operator:
// how many vertices warped vs took the suppressed point path, the message
// group fan-in, and the unit-interval message fraction that feeds the
// suppression heuristic (Sec. VI "Warp Suppression").
type WarpStats struct {
	Superstep    int     `json:"superstep"`
	WarpCalls    int64   `json:"warp_calls"`
	Suppressed   int64   `json:"suppressed"`
	Tuples       int64   `json:"tuples"`        // warp tuples (active vertex intervals)
	MergedGroups int64   `json:"merged_groups"` // tuples grouping >= 2 messages
	MsgsIn       int64   `json:"msgs_in"`       // effective (lifespan-clipped) messages
	UnitMsgsIn   int64   `json:"unit_msgs_in"`  // of which unit-length
	UnitFraction float64 `json:"unit_fraction"`
}

// Kind implements Event.
func (WarpStats) Kind() string { return "warp" }

// Checkpoint records one captured recovery point, taken at the barrier
// before executing Superstep.
type Checkpoint struct {
	Superstep int `json:"superstep"`
	Index     int `json:"index"` // 1-based checkpoint count
}

// Kind implements Event.
func (Checkpoint) Kind() string { return "checkpoint" }

// Recovery records one rollback-and-replay: superstep Failed was abandoned
// and the run resumes from ResumeAt, repeating Replayed completed supersteps.
// The cluster recovers into epoch Epoch from checkpoint generation Gen.
type Recovery struct {
	Failed   int `json:"failed"`
	ResumeAt int `json:"resume_at"`
	Replayed int `json:"replayed,omitempty"`
	Attempt  int `json:"attempt"` // 1-based recovery count
	Epoch    int `json:"epoch"`
	Gen      int `json:"gen"`
}

// Kind implements Event.
func (Recovery) Kind() string { return "recovery" }

// RunEnd closes a run: it is the run's one record, which every driver
// returns and traces (engine.Barrier.End). Supersteps are those that count
// toward the result and Totals sums their counts and phase clocks, so a
// fault-free trace is self-reconciling; Checkpoints and Recoveries are the
// generations a cluster committed and the rollbacks it took (Engine.Run
// leaves both zero); MakespanNS is the driver's wall clock.
type RunEnd struct {
	Supersteps int `json:"supersteps"`
	Totals
	Checkpoints int   `json:"checkpoints"`
	Recoveries  int   `json:"recoveries"`
	MakespanNS  int64 `json:"makespan_ns"`
	Halted      bool  `json:"halted,omitempty"`
}

// Add folds o into r, for a baseline that executes one run per snapshot:
// supersteps, counts, clocks, checkpoints, recoveries and makespans sum.
// Halted stays r's.
func (r *RunEnd) Add(o RunEnd) {
	r.Supersteps += o.Supersteps
	r.Totals.Add(o.Totals)
	r.Checkpoints += o.Checkpoints
	r.Recoveries += o.Recoveries
	r.MakespanNS += o.MakespanNS
}

// Kind implements Event.
func (RunEnd) Kind() string { return "run_end" }

// WorkerJoin records a worker process registering with the cluster
// coordinator and receiving a shard assignment. Rejoin marks a replacement
// for a lost worker (it restores the shard's state from disk).
type WorkerJoin struct {
	Shard  int    `json:"shard"`
	Addr   string `json:"addr,omitempty"`
	Epoch  int    `json:"epoch"`
	Rejoin bool   `json:"rejoin,omitempty"`
}

// Kind implements Event.
func (WorkerJoin) Kind() string { return "worker_join" }

// WorkerLost records the coordinator detecting a dead worker — a missed
// lease or a broken connection — at the given superstep.
type WorkerLost struct {
	Shard     int    `json:"shard"`
	Superstep int    `json:"superstep"`
	Reason    string `json:"reason"`
}

// Kind implements Event.
func (WorkerLost) Kind() string { return "worker_lost" }

// ShardStep is one shard's share of one superstep, and the one record of it,
// for either driver. A cluster worker fills it from its own clock, writes it to
// its trace and sends it in its barrier report; the coordinator adds its relay
// clock and keeps it as that shard's row of the superstep's ClusterStep.
// Engine.Run fills one per shard and traces it before the row. ComputeNS is
// compute + outbound + shipping the batches, WaitNS the idle time until
// delivery began (in a cluster: until the last peer batch landed), DeliverNS
// delivery, plus barrier and checkpoint I/O in a cluster; PeerSendNS and
// DirectBytes are what the shard wrote to its peers, PeerRecvNS the time from
// shipping to the last direct batch's arrival. RelayNS and RelayBytes are the
// coordinator's time and volume forwarding batches toward the shard (those
// whose mesh link was down): zero in a worker's trace.
type ShardStep struct {
	Span        string `json:"span,omitempty"`
	Superstep   int    `json:"superstep"`
	Shard       int    `json:"shard"`
	Epoch       int    `json:"epoch"`
	ComputeNS   int64  `json:"compute_ns"`
	WaitNS      int64  `json:"wait_ns"`
	DeliverNS   int64  `json:"deliver_ns"`
	PeerSendNS  int64  `json:"peer_send_ns,omitempty"`
	PeerRecvNS  int64  `json:"peer_recv_ns,omitempty"`
	DirectBytes int64  `json:"direct_bytes,omitempty"`
	RelayNS     int64  `json:"relay_ns,omitempty"`
	RelayBytes  int64  `json:"relay_bytes,omitempty"`
}

// Kind implements Event.
func (ShardStep) Kind() string { return "shard_step" }

// ClusterStep is one closed superstep of either driver: a trace event, and in
// a cluster the coordinator's /debug/cluster row. WallNS is the driver's wall
// time from the start of the superstep to its barrier's close; SlowestShard
// has the largest compute time, and SkewMilli is max/mean compute in
// thousandths (1000 = perfectly balanced). Shards holds each shard's record,
// shards ascending. NewClusterStep builds one.
type ClusterStep struct {
	Span         string      `json:"span,omitempty"`
	Superstep    int         `json:"superstep"`
	Epoch        int         `json:"epoch"`
	WallNS       int64       `json:"wall_ns"`
	SlowestShard int         `json:"slowest_shard"`
	SkewMilli    int64       `json:"skew_milli"`
	Shards       []ShardStep `json:"shards"`
}

// Kind implements Event.
func (ClusterStep) Kind() string { return "cluster_step" }

// NewClusterStep builds the row of one closed superstep from its shards'
// records, shards ascending, which it keeps: the slowest shard and the skew
// follow from their compute clocks.
func NewClusterStep(span string, superstep, epoch int, wallNS int64, shards []ShardStep) ClusterStep {
	c := ClusterStep{Span: span, Superstep: superstep, Epoch: epoch, WallNS: wallNS, SkewMilli: 1000, Shards: shards}
	var sum int64
	for i, s := range shards {
		sum += s.ComputeNS
		if s.ComputeNS > shards[c.SlowestShard].ComputeNS {
			c.SlowestShard = i
		}
	}
	if mean := sum / int64(len(shards)); mean > 0 {
		c.SkewMilli = shards[c.SlowestShard].ComputeNS * 1000 / mean
	}
	return c
}

// Clocks splits the record's clocks into the superstep's phases, the way
// both cluster processes account them: compute+ is ComputeNS; messaging is
// the wait for peer batches, the relay hop and the peer writes; barrier is
// DeliverNS (delivery, barrier and checkpoint I/O). The coordinator splits
// the fleet's sum (Total), a worker its own record.
func (s ShardStep) Clocks() Totals {
	return Totals{ComputeNS: s.ComputeNS, MessagingNS: s.WaitNS + s.RelayNS + s.PeerSendNS, BarrierNS: s.DeliverNS}
}

// Total sums the shard records' clocks and volumes: the fleet's share of the
// superstep.
func (c ClusterStep) Total() ShardStep {
	var t ShardStep
	for _, s := range c.Shards {
		t.ComputeNS += s.ComputeNS
		t.WaitNS += s.WaitNS
		t.DeliverNS += s.DeliverNS
		t.PeerSendNS += s.PeerSendNS
		t.DirectBytes += s.DirectBytes
		t.RelayNS += s.RelayNS
		t.RelayBytes += s.RelayBytes
	}
	return t
}

// EpochPublish records one live-graph ingest batch becoming visible: the
// epoch it published, the batch size, the cumulative event count, and the
// shape of the materialized snapshot. WallNS covers WAL append (including
// fsync) through snapshot publication.
type EpochPublish struct {
	Graph    string `json:"graph,omitempty"`
	Epoch    uint64 `json:"epoch"`
	Batch    int    `json:"batch_events"`
	Events   int    `json:"events"` // cumulative since the log began
	LastTime int64  `json:"last_time"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	WallNS   int64  `json:"wall_ns"`
}

// Kind implements Event.
func (EpochPublish) Kind() string { return "epoch_publish" }

// WALReplay records a live graph recovering its state at open: how many
// batches and events were replayed from the write-ahead log, the bytes
// consumed, and whether a torn tail (an append cut short by a crash) was
// truncated. When recovery started from a compacted snapshot,
// FromSnapshot is set, SnapshotEpoch names the epoch it captured and
// SnapshotEvents counts the events it already covered (Batches/Events then
// describe only the replayed tail). live.Graph.LastRecovery returns it.
type WALReplay struct {
	Graph          string `json:"graph,omitempty"`
	Batches        int    `json:"batches"`
	Events         int    `json:"events"`
	Bytes          int64  `json:"bytes"`
	Truncated      bool   `json:"truncated,omitempty"`
	FromSnapshot   bool   `json:"from_snapshot,omitempty"`
	SnapshotEpoch  uint64 `json:"snapshot_epoch,omitempty"`
	SnapshotEvents int    `json:"snapshot_events,omitempty"`
	WallNS         int64  `json:"wall_ns"`
}

// Kind implements Event.
func (WALReplay) Kind() string { return "wal_replay" }

// WALCompact records a live graph checkpointing its state: the current
// epoch was written as a mapped snapshot and the write-ahead log was
// rotated to an empty file based at that snapshot. WALBefore/WALAfter are
// the log sizes around the rotation. live.Graph.Compact returns it.
type WALCompact struct {
	Graph         string `json:"graph,omitempty"`
	Epoch         uint64 `json:"epoch"`
	Events        int    `json:"events"` // cumulative events covered by the snapshot
	SnapshotBytes int64  `json:"snapshot_bytes"`
	WALBefore     int64  `json:"wal_before"`
	WALAfter      int64  `json:"wal_after"`
	WallNS        int64  `json:"wall_ns"`
}

// Kind implements Event.
func (WALCompact) Kind() string { return "wal_compact" }

// Recorder is a Tracer that keeps every event in memory, for tests and for
// building summaries without a file round-trip.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Count returns how many events of the given kind were recorded.
func (r *Recorder) Count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind() == kind {
			n++
		}
	}
	return n
}

// MultiTracer fans every event out to several sinks.
type MultiTracer []Tracer

// Emit implements Tracer.
func (m MultiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}
