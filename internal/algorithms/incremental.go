package algorithms

import "strings"

// SupportsIncremental reports whether the named algorithm may be run from a
// prior window's captured terminal state (core.Options.SeedStates) and
// still produce bit-identical results to a cold recompute.
//
// The contract the seedable set satisfies: vertex state is a confluent
// monotone fold (min or max) of messages, every state update covers
// [t, lifespan end) so terminal partition starts coincide with update
// starts, and message departures derive only from the updated interval's
// start — which is why re-scattering the terminal partitions regenerates
// the run's message frontier exactly. EAT (min arrival), FAST (max journey
// start) and RH (max reached flag) satisfy it; the differential tests in
// incremental_test.go pin the bit-identity for each. Algorithms with
// iteration-indexed state (PageRank), phased masters (SCC, TMST) or
// non-monotone folds stay on the cold path.
func SupportsIncremental(name string) bool {
	switch strings.ToLower(name) {
	case "eat", "fast", "rh":
		return true
	}
	return false
}

// WindowView reports whether the named algorithm may be restricted to a time
// window through core.Options.Window (Params.Window) — a view of the graph
// and of its memoised scatter plan — and still answer bit for bit, states and
// counts, what it answers over tgraph.Slice of that window.
//
// The view algorithms reach the graph only through what the runtime clips:
// the vertex lifespan, the scatter plan's pieces and property values, and
// ScatterPiece. FAST and LD also need the window's horizon, which New takes
// from tgraph.Graph.HorizonIn. PageRank and LCC take the graph in their
// constructors, and SCC, LCC and TC walk adjacency through VertexCtx.Graph,
// where a view still shows every edge of the whole graph; they run over the
// slice.
func WindowView(name string) bool {
	switch strings.ToLower(name) {
	case "bfs", "wcc", "sssp", "eat", "fast", "ld", "tmst", "rh":
		return true
	}
	return false
}
