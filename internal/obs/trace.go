package obs

import "sync"

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

// WorkerPhase is one worker's share of one phase of a superstep: "compute"
// (user logic + message emission) or "exchange" (delivery; over a real
// transport the send half is reported as "ship" and the receive half as
// "exchange"). Counter fields carry the phase's deltas for that worker.
type WorkerPhase struct {
	Superstep    int    `json:"superstep"`
	Worker       int    `json:"worker"`
	Phase        string `json:"phase"`
	NS           int64  `json:"ns"`
	ComputeCalls int64  `json:"compute_calls,omitempty"`
	ScatterCalls int64  `json:"scatter_calls,omitempty"`
	SentMsgs     int64  `json:"sent_msgs,omitempty"`
	SentBytes    int64  `json:"sent_bytes,omitempty"`
	Delivered    int64  `json:"delivered,omitempty"`
}

// Kind implements Event.
func (WorkerPhase) Kind() string { return "worker_phase" }

// IntervalBytes splits interval-encoded bytes by codec class (Sec. VI
// "Interval Messages"): the unit/unbounded flag classes are what produce
// the paper's 59-78% message-size reduction.
type IntervalBytes struct {
	Unit      int64 `json:"unit,omitempty"`
	Unbounded int64 `json:"unbounded,omitempty"`
	General   int64 `json:"general,omitempty"`
	Empty     int64 `json:"empty,omitempty"`
}

// SuperstepEnd closes one superstep at its barrier with the superstep's
// metric deltas — the per-superstep decomposition of engine.Metrics. Sums
// of these fields across a fault-free trace equal the run totals exactly.
// Messages counts what the program sent, the paper's count; Delivered counts
// what reached an inbox: the messages sent, less those a worker folded into
// another under the run's combiner before handing its batches over. Without
// a combiner the two are equal.
type SuperstepEnd struct {
	Superstep    int           `json:"superstep"`
	ComputeNS    int64         `json:"compute_ns"`
	MessagingNS  int64         `json:"messaging_ns"`
	BarrierNS    int64         `json:"barrier_ns"`
	ComputeCalls int64         `json:"compute_calls"`
	ScatterCalls int64         `json:"scatter_calls"`
	Messages     int64         `json:"messages"`
	MessageBytes int64         `json:"message_bytes"`
	Delivered    int64         `json:"delivered"`
	Active       int           `json:"active"` // vertices active after delivery
	Intervals    IntervalBytes `json:"interval_bytes"`
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
type Recovery struct {
	Failed   int    `json:"failed"`
	ResumeAt int    `json:"resume_at"`
	Replayed int    `json:"replayed,omitempty"`
	Attempt  int    `json:"attempt"` // 1-based recovery count
	Reason   string `json:"reason"`
	Reset    bool   `json:"reset,omitempty"` // transport reset was required
}

// Kind implements Event.
func (Recovery) Kind() string { return "recovery" }

// SendRetry records one failed Transport.Send attempt that will be (or has
// exhausted being) retried. Emitted from worker goroutines.
type SendRetry struct {
	Superstep int    `json:"superstep"`
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Attempt   int    `json:"attempt"` // 1-based attempt that failed
	Error     string `json:"error"`
}

// Kind implements Event.
func (SendRetry) Kind() string { return "send_retry" }

// RunEnd closes a run with the final totals — the same quantities as the
// engine.Metrics view, so a trace is self-reconciling.
type RunEnd struct {
	Supersteps   int   `json:"supersteps"`
	ComputeCalls int64 `json:"compute_calls"`
	ScatterCalls int64 `json:"scatter_calls"`
	Messages     int64 `json:"messages"`
	MessageBytes int64 `json:"message_bytes"`
	Delivered    int64 `json:"delivered"`
	Checkpoints  int   `json:"checkpoints"`
	Recoveries   int   `json:"recoveries"`
	ComputeNS    int64 `json:"compute_ns"`
	MessagingNS  int64 `json:"messaging_ns"`
	BarrierNS    int64 `json:"barrier_ns"`
	MakespanNS   int64 `json:"makespan_ns"`
	Halted       bool  `json:"halted,omitempty"`
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

// ClusterRecovery closes one distributed recovery: after losing a worker at
// superstep Failed, the cluster rolled every shard back to checkpoint
// generation Gen, waited for a replacement, and resumed at ResumeAt.
// DetectNS is failure→detection; MTTRNS is detection→resumed (the headline
// recovery metric); RestoredBytes is the checkpoint volume reloaded from
// disk across shards.
type ClusterRecovery struct {
	Epoch         int   `json:"epoch"` // epoch the cluster recovered INTO
	Failed        int   `json:"failed"`
	ResumeAt      int   `json:"resume_at"`
	Gen           int   `json:"gen"`
	DetectNS      int64 `json:"detect_ns"`
	MTTRNS        int64 `json:"mttr_ns"`
	RestoredBytes int64 `json:"restored_bytes"`
}

// Kind implements Event.
func (ClusterRecovery) Kind() string { return "cluster_recovery" }

// ShardStep is one shard's share of one distributed superstep, and the one
// record of it: the worker fills it from its own clock, writes it to its trace
// and sends it in its barrier report; the coordinator adds its relay clock and
// keeps it as that shard's row of the superstep's ClusterStep. ComputeNS is
// compute + outbound + shipping the batches, WaitNS the idle time until the
// last peer batch landed, DeliverNS delivery + barrier + checkpoint I/O;
// PeerSendNS and DirectBytes are what the shard wrote to mesh peers, PeerRecvNS
// the time from shipping to the last direct batch's arrival. RelayNS and
// RelayBytes are the coordinator's time and volume forwarding batches toward
// the shard (those whose mesh link was down): zero in a worker's trace.
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

// ClusterStep is one closed distributed superstep: the coordinator's trace
// event and its /debug/cluster row. WallNS is the coordinator's wall time from
// step broadcast to the last barrier report; SlowestShard has the largest
// compute time, and SkewMilli is max/mean compute in thousandths (1000 =
// perfectly balanced). Shards holds each shard's record, shards ascending.
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
// FromSnapshot is set and SnapshotEvents counts the events the snapshot
// already covered (Batches/Events then describe only the replayed tail).
type WALReplay struct {
	Graph          string `json:"graph,omitempty"`
	Batches        int    `json:"batches"`
	Events         int    `json:"events"`
	Bytes          int64  `json:"bytes"`
	Truncated      bool   `json:"truncated,omitempty"`
	FromSnapshot   bool   `json:"from_snapshot,omitempty"`
	SnapshotEvents int    `json:"snapshot_events,omitempty"`
	WallNS         int64  `json:"wall_ns"`
}

// Kind implements Event.
func (WALReplay) Kind() string { return "wal_replay" }

// WALCompact records a live graph checkpointing its state: the current
// epoch was written as a mapped snapshot and the write-ahead log was
// rotated to an empty file based at that snapshot. WALBefore/WALAfter are
// the log sizes around the rotation.
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
