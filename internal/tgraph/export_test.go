package tgraph

// For the tests in package tgraph_test, which need generated graphs: the
// Builder derivation of a window slice (slice_test.go) and the race flag.
var SliceOracle = sliceOracle

const RaceEnabled = raceEnabled
