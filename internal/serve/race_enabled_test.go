//go:build race

package serve

// raceEnabled mirrors internal/core's: allocation gates are skipped under
// the race detector, whose instrumentation perturbs pooling and allocation.
const raceEnabled = true
