//go:build race

package tgraph

// raceEnabled mirrors internal/engine's: allocation gates are skipped under
// the race detector, whose instrumentation perturbs allocation.
const raceEnabled = true
