// Package cluster is the multi-process runtime: one coordinator process
// drives N worker processes through the distributed BSP loop over framed
// TCP, supervises them with heartbeat leases, and recovers from worker
// death by rolling every survivor back to the last globally-committed
// durable checkpoint and replaying.
//
// Every worker builds the engine over the full vertex set from an identical
// configuration (or maps its own "shard:<dir>" partition), so all processes
// agree on the vertex→shard map, and computes only its own shard
// (core.Shard). The coordinator owns all control flow — superstep
// broadcast, barrier, halt, checkpoint commit, recovery — and batches travel
// worker to worker over a TCP mesh, or through the coordinator for a link
// that is down. A worker hands its peers' batches to Shard.Deliver ascending
// by source shard, whatever hop each took, so a cluster run is bit-identical
// to core.Run at the same width.
//
// The protocol is two state machines, the coordinator's driver and the
// worker's wrk, which reach sockets and the clock only through coordIO and
// workerIO; shell.go and mesh.go implement those over TCP.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/engine"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

// Frame types of the coordinator↔worker protocol. Control frames carry
// JSON; fData and fResult carry binary payloads with uvarint headers.
const (
	fHello     byte = iota + 1 // worker→coord: registration
	fAssign                    // coord→worker: shard assignment + run spec
	fReady                     // worker→coord: shard built/restored, at a barrier
	fStep                      // coord→worker: execute one superstep
	fStepDone                  // worker→coord: barrier report
	fData                      // one encoded message batch: peer to peer, or via the coordinator when that link is down
	fRollback                  // coord→worker: restore committed gen, new epoch
	fCollect                   // coord→worker: send final states
	fResult                    // worker→coord: encoded owned states
	fHeartbeat                 // worker→coord: lease renewal
	fError                     // worker→coord: fatal worker-side error
	fBye                       // coord→worker: run complete, exit cleanly
	fPeers                     // coord→worker: mesh addresses of every shard
	fMeshed                    // worker→coord: mesh dial attempts finished for an epoch
	fMeshHello                 // worker→worker: first frame on a mesh connection
)

// helloMsg registers a worker. PrevShard is the shard recorded in the
// worker's checkpoint directory by a previous incarnation (-1 if none); the
// coordinator prefers to re-assign it so the on-disk checkpoints match.
// MeshAddr is the worker's listening address for peer data; a hello without
// one is malformed and the coordinator drops the connection.
type helloMsg struct {
	PrevShard int    `json:"prev_shard"`
	MeshAddr  string `json:"mesh_addr"`
}

// assignMsg hands a worker its shard and everything needed to build it
// identically to every peer. RestoreGen >= 0 instructs the worker to load
// that generation from its local store after Init (the replacement-worker
// path); -1 means a fresh start (save generation 0 instead). Span is the
// run-scoped span ID every process stamps on its trace, so the coordinator
// trace and all N worker traces name the same distributed run.
type assignMsg struct {
	Shard           int               `json:"shard"`
	Shards          int               `json:"shards"`
	Epoch           int               `json:"epoch"`
	RestoreGen      int               `json:"restore_gen"`
	Graph           string            `json:"graph"`
	Algo            string            `json:"algo"`
	Params          algorithms.Params `json:"params"`
	CheckpointEvery int               `json:"checkpoint_every"`
	HeartbeatNS     int64             `json:"heartbeat_ns"`
	Span            string            `json:"span,omitempty"`
}

// readyMsg reports a worker standing at a superstep boundary, ready for
// fStep: after initial assignment, after a rollback restore, or after a
// replacement-worker restore.
type readyMsg struct {
	Epoch         int   `json:"epoch"`
	Shard         int   `json:"shard"`
	Superstep     int   `json:"superstep"`
	Gen           int   `json:"gen"`
	RestoredBytes int64 `json:"restored_bytes"`
	GraphBytes    int64 `json:"graph_bytes,omitempty"` // resident graph footprint (mapped partition size)
}

// stepMsg starts one superstep. Checkpoint tells the worker to capture a
// durable checkpoint as generation Gen at the closing barrier; Phase is the
// phase the coordinator's barrier opened the superstep with.
type stepMsg struct {
	Epoch      int  `json:"epoch"`
	Superstep  int  `json:"superstep"`
	Checkpoint bool `json:"checkpoint,omitempty"`
	Gen        int  `json:"gen,omitempty"`
	Phase      int  `json:"phase,omitempty"`
}

// stepDoneMsg is one shard's barrier report: the shard's engine.StepReport,
// which the coordinator's barrier closes the superstep from, and the shard's
// record of the superstep, which names its shard and epoch and carries the
// worker's own clock. The record is a named field: encoding/json drops the
// same-named fields of two structs embedded at one depth. CkptGen is -1
// unless this superstep captured a checkpoint; the coordinator commits a
// generation globally only after every shard acknowledges it.
type stepDoneMsg struct {
	engine.StepReport
	Step      obs.ShardStep `json:"step"`
	CkptGen   int           `json:"ckpt_gen"`
	CkptBytes int64         `json:"ckpt_bytes"`
}

// peersMsg hands every worker the mesh address of every shard for an epoch
// (indexed by shard; the receiver skips its own slot). Re-broadcast after
// every recovery so replacements advertise their fresh listeners.
type peersMsg struct {
	Epoch int      `json:"epoch"`
	Addrs []string `json:"addrs"`
}

// meshedMsg acknowledges a peersMsg: the worker's dial attempts for the
// epoch are over. It says nothing of their outcome — a peer that did not
// answer costs the batches bound for it the coordinator hop, not the run.
type meshedMsg struct {
	Epoch int `json:"epoch"`
	Shard int `json:"shard"`
}

// meshHelloMsg is the first frame on every mesh connection, identifying the
// dialing shard. Epoch is advisory (dataHeader carries the authoritative
// epoch per batch).
type meshHelloMsg struct {
	Shard int `json:"shard"`
	Epoch int `json:"epoch"`
}

// rollbackMsg orders survivors back to the last globally-committed
// generation and moves the cluster to a new epoch; frames from older
// epochs are discarded on both sides.
type rollbackMsg struct {
	Epoch int `json:"epoch"`
	Gen   int `json:"gen"`
}

// collectMsg asks for final states once the run has halted.
type collectMsg struct {
	Epoch int `json:"epoch"`
}

// errorMsg reports a fatal worker-side failure (a deterministic program
// panic, an unreadable checkpoint). The coordinator aborts the run: a
// deterministic failure would recur on every replay.
type errorMsg struct {
	Shard int    `json:"shard"`
	Msg   string `json:"msg"`
}

// readConnFrame / writeConnFrame are the wire primitives, named for intent
// at call sites.
func readConnFrame(r io.Reader) (byte, []byte, error) { return codec.ReadFrame(r) }

func writeConnFrame(w io.Writer, ftype byte, payload []byte) error {
	return codec.WriteFrame(w, ftype, payload)
}

// parseJSON decodes one JSON control frame payload. A barrier report's
// "aggs":[] and an absent "aggs" mean the same — no aggregator partials — and
// both decode to nil, the value the sender's omitempty leaves off the wire.
func parseJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("cluster: malformed control frame: %w", err)
	}
	if sd, ok := v.(*stepDoneMsg); ok && len(sd.Aggs) == 0 {
		sd.Aggs = nil
	}
	return nil
}

// dataHeader addresses one message batch, whichever hop it takes.
type dataHeader struct {
	epoch     int
	superstep int
	src       int
	dst       int
}

// appendDataHeader prepends the routing header to a data frame payload.
func appendDataHeader(buf []byte, h dataHeader) []byte {
	buf = binary.AppendUvarint(buf, uint64(h.epoch))
	buf = binary.AppendUvarint(buf, uint64(h.superstep))
	buf = binary.AppendUvarint(buf, uint64(h.src))
	buf = binary.AppendUvarint(buf, uint64(h.dst))
	return buf
}

// errDataHeader and errResultHeader are what a malformed header wraps: one
// error value each, so parsing the header of every data frame allocates none.
var (
	errDataHeader   = fmt.Errorf("%w: data frame header", codec.ErrCorrupt)
	errResultHeader = fmt.Errorf("%w: result frame header", codec.ErrCorrupt)
)

// parseDataHeader splits a data frame payload into its header and the
// encoded batch bytes.
func parseDataHeader(p []byte) (dataHeader, []byte, error) {
	r := codec.NewReader(p, errDataHeader)
	h := dataHeader{epoch: r.Int("epoch"), superstep: r.Int("superstep"), src: r.Int("source"), dst: r.Int("destination")}
	return h, r.Rest(), r.Err
}

// appendResultHeader / parseResultHeader frame a shard's state blob.
func appendResultHeader(buf []byte, epoch, shard int) []byte {
	buf = binary.AppendUvarint(buf, uint64(epoch))
	buf = binary.AppendUvarint(buf, uint64(shard))
	return buf
}

func parseResultHeader(p []byte) (epoch, shard int, blob []byte, err error) {
	r := codec.NewReader(p, errResultHeader)
	epoch, shard = r.Int("epoch"), r.Int("shard")
	return epoch, shard, r.Rest(), r.Err
}

// LoadGraph resolves a graph spec shared between coordinator and workers:
// "transit" is the built-in fixture, "file:<path>" loads any tgraph format
// — text, or a .gsn snapshot, which rejoining workers open as an mmap so a
// respawn pays page faults instead of a parse — and
// "shard:<dir>" names a partition directory written by WritePartitions,
// from which each process maps only its own induced subgraph. Every process
// must resolve the spec to a graph with identical vertex indexing or the
// deterministic partition maps diverge. The returned Mapped stays open for
// the lifetime of the graph: the engine and results alias its memory.
func LoadGraph(spec string) (*tgraph.Mapped, error) {
	m, _, err := LoadGraphShard(spec, -1)
	return m, err
}

// LoadGraphShard resolves a graph spec for one shard. For "shard:<dir>"
// specs, shard >= 0 maps that shard's partition file (vertex set intact,
// edges trimmed to the shard's incident set) and shard == -1 maps the full
// graph copy (the coordinator's view); the returned PartitionMeta carries
// the cut's vertex→shard assignment, which every process must adopt as its
// partitioner. For whole-graph specs the meta is nil and the shard argument
// is irrelevant.
func LoadGraphShard(spec string, shard int) (*tgraph.Mapped, *tgraph.PartitionMeta, error) {
	switch {
	case spec == "transit":
		return tgraph.Unmapped(tgraph.TransitExample()), nil, nil
	case strings.HasPrefix(spec, "file:"):
		m, err := tgraph.OpenAnyFile(strings.TrimPrefix(spec, "file:"))
		return m, nil, err
	case strings.HasPrefix(spec, "shard:"):
		dir := strings.TrimPrefix(spec, "shard:")
		name := tgraph.PartitionFullName
		if shard >= 0 {
			name = tgraph.PartitionFileName(shard)
		}
		m, meta, err := tgraph.OpenPartition(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		wantShard := shard
		if shard < 0 {
			wantShard = -1
		}
		if meta.Shard != wantShard {
			m.Close()
			return nil, nil, fmt.Errorf("%s: %w: file claims shard %d, requested %d",
				filepath.Join(dir, name), tgraph.ErrPartitionMismatch, meta.Shard, wantShard)
		}
		return m, meta, nil
	}
	return nil, nil, fmt.Errorf("cluster: unknown graph spec %q (want \"transit\", \"file:<path>\" or \"shard:<dir>\")", spec)
}

// shardMarkerName binds a checkpoint directory to the shard whose
// generations it holds, so a respawned worker can ask for its old shard
// back and its on-disk checkpoints stay meaningful.
const shardMarkerName = "SHARD"

func readShardMarker(dir string) int {
	b, err := os.ReadFile(filepath.Join(dir, shardMarkerName))
	if err != nil {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n < 0 {
		return -1
	}
	return n
}

func writeShardMarker(dir string, shard int) error {
	return os.WriteFile(filepath.Join(dir, shardMarkerName), []byte(strconv.Itoa(shard)+"\n"), 0o644)
}

// CrashEnv names the environment variable the chaos driver sets to plant a
// kill point in a worker process: "<phase>:<superstep>" with phase one of
// "compute" (after the compute phase has shipped its batches, before
// delivery), "peersend" (mid-ship: after the first peer batch has left but
// before the rest, the worst case for the mesh), "checkpoint"
// (between the checkpoint temp-file write and its atomic rename), or
// "barrier" (after the barrier report is sent).
const CrashEnv = "GRAPHITE_CRASH"

// CrashPlan is a parsed kill point. The zero value never fires.
type CrashPlan struct {
	Phase     string
	Superstep int
}

// ParseCrashPlan parses a CrashEnv value; empty means no crash.
func ParseCrashPlan(s string) (CrashPlan, error) {
	if s == "" {
		return CrashPlan{}, nil
	}
	phase, stepStr, ok := strings.Cut(s, ":")
	if !ok {
		return CrashPlan{}, fmt.Errorf("cluster: bad crash plan %q (want phase:superstep)", s)
	}
	switch phase {
	case "compute", "peersend", "checkpoint", "barrier":
	default:
		return CrashPlan{}, fmt.Errorf("cluster: bad crash phase %q", phase)
	}
	step, err := strconv.Atoi(stepStr)
	if err != nil || step <= 0 {
		return CrashPlan{}, fmt.Errorf("cluster: bad crash superstep in %q", s)
	}
	return CrashPlan{Phase: phase, Superstep: step}, nil
}

// at reports whether the plan fires at this phase of this superstep.
func (p CrashPlan) at(phase string, superstep int) bool {
	return p.Phase == phase && p.Superstep == superstep
}
