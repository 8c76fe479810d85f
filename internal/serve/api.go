package serve

// The wire types of the JSON API. Numbers that are semantically times or
// vertex ids are int64 end to end; state values and intervals are rendered
// as strings with the same fmt verbs cmd/graphite-run prints, which is what
// makes a served result reconstructible bit-for-bit into the CLI's output
// (see FormatResult / RunResult.FormatLines).

// Window restricts a run to a time sub-window of the graph: every vertex,
// edge and property exists only inside it, and vertices it leaves nothing of
// are absent from the result. The server derives no graph: every algorithm
// takes the window as a view of the resident one (core.Options.Window), and
// answers what it answers over tgraph.Slice of the window with each vertex
// placed on the worker it has in the resident graph. End <= 0 means
// unbounded.
type Window struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// RunRequest asks the server to run one catalog algorithm over a loaded
// graph. Params carries the algorithm inputs by name (source, target, start,
// deadline, iterations); unknown keys are rejected.
type RunRequest struct {
	// Graph names one of the server's loaded graphs.
	Graph string `json:"graph"`
	// Algorithm is a catalog name ("sssp", "eat", "pr", ...).
	Algorithm string `json:"algorithm"`
	// Params are the algorithm parameters; omitted keys take the catalog
	// defaults, so semantically identical requests share a cache entry.
	Params map[string]int64 `json:"params,omitempty"`
	// Window restricts the run to a time sub-window; nil means the graph's
	// full lifetime.
	Window *Window `json:"window,omitempty"`
	// Workers overrides the BSP worker count for this run. It is not part of
	// the cache key. For most algorithms it affects execution only; PR, LCC
	// and TC fold floats or lists in the order messages arrive, so their
	// result bits depend on it, and a cached answer carries the bits of the
	// worker count that computed it.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the run; zero means the server's default deadline. A
	// run past its deadline is aborted at the next superstep barrier.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Async makes the call return a job id immediately; poll /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
	// NoCache bypasses the result cache and singleflight dedup for this
	// request (the fresh result still does not overwrite the cache).
	NoCache bool `json:"no_cache,omitempty"`
	// Span, when set, is the client-minted run-scoped span ID to thread
	// through the run's traces (16 hex chars, obs.NewSpanID form); empty
	// makes the server mint one at admission. Spans are observability
	// identity only — they never affect caching or results.
	Span string `json:"span,omitempty"`
}

// StatePart is one partition of a vertex's final interval state, rendered
// exactly as the CLI prints it.
type StatePart struct {
	Interval string `json:"interval"`
	Value    string `json:"value"`
}

// VertexResult is one vertex's final state.
type VertexResult struct {
	ID    int64       `json:"id"`
	Parts []StatePart `json:"parts,omitempty"`
}

// RunMetrics summarizes a run for the response; the full breakdown is
// available by attaching a tracer via Config.RunTracer.
type RunMetrics struct {
	Supersteps      int   `json:"supersteps"`
	ComputeCalls    int64 `json:"compute_calls"`
	ScatterCalls    int64 `json:"scatter_calls"`
	Messages        int64 `json:"messages"`
	MessageBytes    int64 `json:"message_bytes"`
	MakespanNS      int64 `json:"makespan_ns"`
	WarpCalls       int64 `json:"warp_calls"`
	WarpSuppressed  int64 `json:"warp_suppressed"`
	ActiveIntervals int64 `json:"active_intervals"`
}

// RunResult is a finished run: the canonical identity of the request, the
// per-vertex interval states, and the run metrics. Cached is per-response:
// true when the result was served from the cache or deduplicated onto
// another request's run rather than executed for this caller.
type RunResult struct {
	Graph       string `json:"graph"`
	Algorithm   string `json:"algorithm"`
	Fingerprint string `json:"fingerprint"`
	Window      string `json:"window"`
	// Span is the run-scoped span ID of the run that produced this result;
	// for cached or deduplicated responses it names the producing run, not
	// this request.
	Span   string `json:"span,omitempty"`
	Cached bool   `json:"cached"`
	// Epoch, for runs over a live graph, is the effective epoch the result
	// was computed under: the oldest epoch whose graph equals the snapshot's
	// within the window. Static graphs omit it.
	Epoch uint64 `json:"epoch,omitempty"`
	// Seeded marks a run that started from a prior window's retained
	// terminal states instead of superstep zero (incremental recomputation);
	// the result is bit-identical to a cold run either way.
	Seeded   bool           `json:"seeded,omitempty"`
	Metrics  RunMetrics     `json:"metrics"`
	Vertices []VertexResult `json:"vertices"`
}

// GraphInfo describes one loaded graph for /v1/graphs. Live graphs carry
// their current epoch and cumulative event count; a still-empty live graph
// reports zero vertices and an empty lifespan.
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Lifespan string `json:"lifespan,omitempty"`
	Horizon  int64  `json:"horizon"`
	Live     bool   `json:"live,omitempty"`
	Epoch    uint64 `json:"epoch,omitempty"`
	Events   int    `json:"events,omitempty"`
}

// EventWire is one mutation in a POST /v1/graphs/{id}/events batch. Op uses
// the event-log mnemonics of stream.ReadLog — av/rv (add/remove vertex),
// ae/re (add/remove edge), vp/ep (set vertex/edge property) — and the
// remaining fields apply per op exactly as in stream.Event: v for vertex
// events and vertex properties, e for edge events and edge properties,
// src/dst for ae, label/value for properties.
type EventWire struct {
	Op    string `json:"op"`
	T     int64  `json:"t"`
	V     int64  `json:"v,omitempty"`
	E     int64  `json:"e,omitempty"`
	Src   int64  `json:"src,omitempty"`
	Dst   int64  `json:"dst,omitempty"`
	Label string `json:"label,omitempty"`
	Value int64  `json:"value,omitempty"`
}

// EventsRequest is the body of POST /v1/graphs/{id}/events: one atomic batch
// of time-ordered mutations. Either every event is accepted — durably logged
// before the new epoch becomes visible — or the whole batch is rejected and
// the graph is unchanged.
type EventsRequest struct {
	Events []EventWire `json:"events"`
}

// EventsResult acknowledges an ingested batch with the newly published
// epoch's summary.
type EventsResult struct {
	Graph    string `json:"graph"`
	Epoch    uint64 `json:"epoch"`
	Events   int    `json:"events"` // cumulative since the log began
	LastTime int64  `json:"last_time"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

// JobView is the external state of an async job.
type JobView struct {
	ID          string     `json:"id"`
	Status      string     `json:"status"`
	Graph       string     `json:"graph"`
	Algorithm   string     `json:"algorithm"`
	Fingerprint string     `json:"fingerprint"`
	Error       string     `json:"error,omitempty"`
	Result      *RunResult `json:"result,omitempty"`
}
