package core

// CheckPlanAgainstOracle lets the catalog-wide test in package core_test
// (which may import internal/algorithms; this package may not) compare the
// flat scatter plan with the per-edge reference derivation.
var CheckPlanAgainstOracle = checkPlanAgainstOracle
