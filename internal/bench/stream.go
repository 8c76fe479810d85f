package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/core"
	ival "graphite/internal/interval"
	"graphite/internal/live"
	"graphite/internal/stats"
	"graphite/internal/stream"
	"graphite/internal/tgraph"
)

// --- stream: live-graph ingest throughput and incremental recomputation ---
//
// Two measurements on the live subsystem:
//
//  1. Ingest: events/sec through live.Apply with the WAL fsync on (the
//     acknowledged-durable path) and with NoSync (isolating the fsync tax),
//     plus the cost of replaying the whole log back into a graph on reopen.
//  2. Incremental recomputation: for each seedable algorithm, a query window
//     is answered cold, then re-answered seeded from a prior run covering a
//     prefix of the window (core.Options.SeedStates, the serve layer's
//     seed-cache path). The two must be bit-identical — the report fails
//     loudly if any vertex diverges — and the speedup is the point: the
//     seeded run re-scatters converged state in one superstep instead of
//     re-propagating it wave by wave.
//
// The generated event stream appends a chain of vertices, one time unit and
// one weighted edge per vertex. The chain is the adversarial shape for cold
// recomputation — supersteps scale with the diameter, so the window prefix
// the seed already converged is exactly the work the incremental run skips.

// streamRuns is how many measured runs back each timing; medians are
// reported.
const streamRuns = 3

// streamSeedFrac places the seed run's window cut at this fraction of the
// chain.
const streamSeedFrac = 0.75

// StreamAlgos are the measured seedable algorithms. FAST is also seedable
// (algorithms.SupportsIncremental pins its bit-identity) but is excluded
// here: on the chain its states are partition-dense — the journey-start
// value changes at every time unit, one partition each — so the seeded
// superstep-1 re-scatter replays O(V·H) partitions and costs more than the
// supersteps it saves. Seeding is a correctness-preserving hint, not a
// guaranteed win; these rows are the shapes where it pays.
var StreamAlgos = []Algo{EAT, RH}

// streamBatch returns the ingest batch appending vertices [lo, hi) to the
// chain, vertex v at time v with a travel-time-1 edge from its predecessor.
func streamBatch(lo, hi int) []stream.Event {
	var evs []stream.Event
	for v := lo; v < hi; v++ {
		t := ival.Time(v)
		evs = append(evs, stream.Event{Op: stream.AddVertex, T: t, V: tgraph.VertexID(v)})
		if v > 0 {
			e := tgraph.EdgeID(v)
			evs = append(evs,
				stream.Event{Op: stream.AddEdge, T: t, E: e, Src: tgraph.VertexID(v - 1), Dst: tgraph.VertexID(v)},
				stream.Event{Op: stream.SetEdgeProp, T: t, E: e, Label: tgraph.PropTravelTime, Value: 1},
				stream.Event{Op: stream.SetEdgeProp, T: t, E: e, Label: tgraph.PropTravelCost, Value: 1})
		}
	}
	return evs
}

// StreamRow is one seedable algorithm's incremental-vs-cold cell.
type StreamRow struct {
	Algo Algo `json:"algo"`
	// SeedWindow is the prefix window whose terminal states seed the
	// incremental run; Window is the full query window both runs answer.
	SeedWindow string `json:"seed_window"`
	Window     string `json:"window"`
	// FullMS and IncrementalMS are median wall times of the cold and seeded
	// runs over the same graph; Speedup is their ratio.
	FullMS        float64 `json:"full_ms"`
	IncrementalMS float64 `json:"incremental_ms"`
	Speedup       float64 `json:"speedup"`
	// Superstep counts expose the mechanism: the seeded run needs roughly
	// the extension's diameter, the cold run the whole window's.
	FullSupersteps        int `json:"full_supersteps"`
	IncrementalSupersteps int `json:"incremental_supersteps"`
	// Identical records the bit-identity check (the run errors if false).
	Identical bool `json:"identical"`
}

// StreamReport is the live-graph experiment: ingest throughput plus one
// incremental row per seedable algorithm.
type StreamReport struct {
	Graph    string `json:"graph"`
	Batches  int    `json:"batches"`
	Events   int    `json:"events"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Workers  int    `json:"workers"`
	Runs     int    `json:"runs_per_cell"`
	WALBytes int64  `json:"wal_bytes"`
	// IngestEventsPerSec is the durable path (fsync per batch);
	// NoSyncEventsPerSec drops the fsync, isolating its tax.
	IngestEventsPerSec float64 `json:"ingest_events_per_sec"`
	NoSyncEventsPerSec float64 `json:"nosync_events_per_sec"`
	// ReplayMS is the wall time of reopening the WAL — replaying every batch
	// back into the acknowledged graph.
	ReplayMS           float64     `json:"replay_ms"`
	ReplayEventsPerSec float64     `json:"replay_events_per_sec"`
	Rows               []StreamRow `json:"rows"`
}

// Stream runs the live-graph experiment: ingest the chain through the WAL,
// replay it, then answer each seedable algorithm cold and seeded.
func Stream(cfg Config) (*StreamReport, error) {
	vertices := int(1200 * float64(cfg.Scale))
	if vertices < 60 {
		vertices = 60
	}
	const perBatch = 30
	batches := (vertices + perBatch - 1) / perBatch
	vertices = batches * perBatch

	dir, err := os.MkdirTemp("", "graphite-stream-*")
	if err != nil {
		return nil, fmt.Errorf("bench: stream scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	rep := &StreamReport{
		Graph:   fmt.Sprintf("chain-%d", vertices),
		Batches: batches,
		Workers: cfg.Workers,
		Runs:    streamRuns,
	}

	// Ingest, durable path: every Apply fsyncs the WAL before the new epoch
	// becomes visible — the cost a client's acknowledgment includes. The
	// horizon closes still-open chain entities at the end of the stream so
	// the queried lifespan is finite.
	horizon := ival.Time(vertices)
	walPath := filepath.Join(dir, "stream.wal")
	lg, err := live.Open(walPath, live.Options{Name: "stream", Horizon: horizon})
	if err != nil {
		return nil, fmt.Errorf("bench: stream open: %w", err)
	}
	start := time.Now()
	for i := 0; i < batches; i++ {
		if _, err := lg.Apply(streamBatch(i*perBatch, (i+1)*perBatch)); err != nil {
			lg.Close()
			return nil, fmt.Errorf("bench: stream ingest batch %d: %w", i, err)
		}
	}
	syncWall := time.Since(start)
	info := lg.Info()
	rep.Events = info.Events
	rep.IngestEventsPerSec = float64(info.Events) / max(syncWall.Seconds(), 1e-9)
	if err := lg.Close(); err != nil {
		return nil, fmt.Errorf("bench: stream close: %w", err)
	}
	if st, err := os.Stat(walPath); err == nil {
		rep.WALBytes = st.Size()
	}

	// Replay: reopen the same WAL and take the recovered epoch as the query
	// graph — the bench measures exactly what a crash recovery pays.
	start = time.Now()
	lg, err = live.Open(walPath, live.Options{Name: "stream", Horizon: horizon})
	if err != nil {
		return nil, fmt.Errorf("bench: stream replay: %w", err)
	}
	replayWall := time.Since(start)
	rep.ReplayMS = float64(replayWall.Microseconds()) / 1e3
	rep.ReplayEventsPerSec = float64(info.Events) / max(replayWall.Seconds(), 1e-9)
	ep := lg.Acquire()
	defer ep.Release()
	defer lg.Close()
	g := ep.Graph()
	rep.Vertices = g.NumVertices()
	rep.Edges = g.NumEdges()

	// NoSync ingest on a second WAL isolates the fsync tax.
	ns, err := live.Open(filepath.Join(dir, "nosync.wal"), live.Options{Name: "stream-nosync", NoSync: true})
	if err != nil {
		return nil, fmt.Errorf("bench: stream nosync open: %w", err)
	}
	start = time.Now()
	for i := 0; i < batches; i++ {
		if _, err := ns.Apply(streamBatch(i*perBatch, (i+1)*perBatch)); err != nil {
			ns.Close()
			return nil, fmt.Errorf("bench: stream nosync batch %d: %w", i, err)
		}
	}
	rep.NoSyncEventsPerSec = float64(info.Events) / max(time.Since(start).Seconds(), 1e-9)
	ns.Close()

	// Incremental vs cold over the recovered graph.
	life := g.Lifespan()
	seedEnd := life.Start + ival.Time(float64(life.End-life.Start)*streamSeedFrac)
	seedWin := ival.New(life.Start, seedEnd)
	for _, al := range StreamAlgos {
		row, err := streamCell(cfg, g, al, seedWin)
		if err != nil {
			return nil, fmt.Errorf("bench: stream %s: %w", al, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// streamCell answers one seedable algorithm over the full graph cold and
// seeded from a prefix-window run, verifying bit-identity.
func streamCell(cfg Config, g *tgraph.Graph, al Algo, seedWin ival.Interval) (StreamRow, error) {
	name := strings.ToLower(string(al))
	run := func(target *tgraph.Graph, prior *core.Result) (*core.Result, error) {
		prog, opts, err := algorithms.New(target, name, algorithms.Params{
			Source: target.VertexAt(0).ID,
		})
		if err != nil {
			return nil, err
		}
		opts.NumWorkers = cfg.Workers
		if prior != nil {
			opts.SeedStates = prior.Seed().StatesFor(target)
		}
		return core.Run(target, prog, opts)
	}

	// The seed run mirrors the serve layer: slice the graph to the prefix
	// window, run cold, keep the terminal states.
	gSeed, err := tgraph.Slice(g, seedWin)
	if err != nil {
		return StreamRow{}, fmt.Errorf("slice %s: %w", seedWin, err)
	}
	seedRes, err := run(gSeed, nil)
	if err != nil {
		return StreamRow{}, fmt.Errorf("seed run: %w", err)
	}

	measure := func(seed *core.Result) (*core.Result, float64, error) {
		if _, err := run(g, seed); err != nil { // warm-up
			return nil, 0, err
		}
		var last *core.Result
		walls := make([]time.Duration, 0, streamRuns)
		for i := 0; i < streamRuns; i++ {
			start := time.Now()
			r, err := run(g, seed)
			if err != nil {
				return nil, 0, err
			}
			walls = append(walls, time.Since(start))
			last = r
		}
		sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
		return last, float64(walls[len(walls)/2].Microseconds()) / 1e3, nil
	}
	full, fullMS, err := measure(nil)
	if err != nil {
		return StreamRow{}, fmt.Errorf("cold run: %w", err)
	}
	incr, incrMS, err := measure(seedRes)
	if err != nil {
		return StreamRow{}, fmt.Errorf("seeded run: %w", err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !reflect.DeepEqual(full.State(v).Parts(), incr.State(v).Parts()) {
			return StreamRow{}, fmt.Errorf("vertex %d diverges between cold and seeded runs", v)
		}
	}
	row := StreamRow{
		Algo:                  al,
		SeedWindow:            seedWin.String(),
		Window:                g.Lifespan().String(),
		FullMS:                fullMS,
		IncrementalMS:         incrMS,
		FullSupersteps:        full.Metrics.Supersteps,
		IncrementalSupersteps: incr.Metrics.Supersteps,
		Identical:             true,
	}
	if incrMS > 0 {
		row.Speedup = fullMS / incrMS
	}
	return row, nil
}

// RenderStream prints the live-graph experiment tables.
func RenderStream(w io.Writer, rep *StreamReport) {
	fmt.Fprintf(w, "Stream: live graph %q — %d events in %d batches (%d vertices, %d edges, %d workers)\n",
		rep.Graph, rep.Events, rep.Batches, rep.Vertices, rep.Edges, rep.Workers)
	fmt.Fprintf(w, "ingest %.0f events/s durable (fsync per batch), %.0f events/s nosync; WAL %d bytes; replay %.2f ms (%.0f events/s)\n",
		rep.IngestEventsPerSec, rep.NoSyncEventsPerSec, rep.WALBytes, rep.ReplayMS, rep.ReplayEventsPerSec)
	fmt.Fprintf(w, "incremental recomputation, median of %d runs (seeded from the %s prefix, bit-identity enforced):\n",
		rep.Runs, rep.Rows[0].SeedWindow)
	t := stats.Table{Header: []string{
		"Algo", "Window", "Cold ms", "Seeded ms", "Speedup", "Cold steps", "Seeded steps",
	}}
	for _, r := range rep.Rows {
		t.Add(string(r.Algo), r.Window,
			fmt.Sprintf("%.2f", r.FullMS),
			fmt.Sprintf("%.2f", r.IncrementalMS),
			fmt.Sprintf("%.2fx", r.Speedup),
			r.FullSupersteps, r.IncrementalSupersteps)
	}
	t.Render(w)
}

// WriteStreamJSON writes the report as indented JSON (the BENCH_stream.json
// artifact the Makefile target records).
func WriteStreamJSON(path string, rep *StreamReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
