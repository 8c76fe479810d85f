//go:build race

package algorithms_test

// raceEnabled mirrors internal/engine's: object counts are skipped under the
// race detector, whose instrumentation perturbs pooling and allocation.
const raceEnabled = true
