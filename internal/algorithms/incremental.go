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
// the run's message frontier exactly. Of that frontier only what can change
// a state is sent: a message its receiver's seed absorbs under the
// program's warp combiner is dropped in superstep 1 (core.Options.SeedStates),
// so a seeded run pays for the extension. EAT (min arrival), FAST (max
// journey start) and RH (max reached flag) satisfy the contract; the
// differential tests in incremental_test.go pin the bit-identity for each,
// one seed from the next along a chain of cuts too. Algorithms with
// iteration-indexed state (PageRank), phased masters (SCC, TMST) or
// non-monotone folds stay on the cold path.
func SupportsIncremental(name string) bool {
	switch strings.ToLower(name) {
	case "eat", "fast", "rh":
		return true
	}
	return false
}
