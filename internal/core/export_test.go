package core

import "graphite/internal/tgraph"

// CheckPlanAgainstOracle lets the catalog-wide test in package core_test
// (which may import internal/algorithms; this package may not) compare the
// flat scatter plan with the per-edge reference derivation.
var CheckPlanAgainstOracle = checkPlanAgainstOracle

// PlanBuilds is how many scatter plans have been built for g so far: one per
// distinct plan key it has been run under, however many runs and windows.
func PlanBuilds(g *tgraph.Graph) int {
	n := 0
	for _, e := range planEntries(g) {
		if e.plan != nil {
			n++
		}
	}
	return n
}
