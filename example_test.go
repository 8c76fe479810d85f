package graphite_test

import (
	"fmt"

	"graphite"
)

// The paper's running example: temporal SSSP over the Fig. 1 transit
// network finds, per interval of arrival time, the cheapest time-respecting
// journey.
func ExampleRunSSSP() {
	g := graphite.TransitExample()
	r, err := graphite.RunSSSP(g, 0, 0, 2)
	if err != nil {
		panic(err)
	}
	for _, c := range graphite.SSSPCosts(r, 4) { // stop E
		fmt.Printf("reach E within %v at cost %d\n", c.Interval, c.Value)
	}
	// Output:
	// reach E within [6, 9) at cost 7
	// reach E within [9, ∞) at cost 5
}

// The time-warp operator aligns interval messages with partitioned vertex
// states; this is the superstep-3 walkthrough of the paper's Fig. 2.
func ExampleWarp() {
	states := []graphite.WarpInput{{Interval: graphite.Universe, Value: "∞"}}
	msgs := []graphite.WarpInput{
		{Interval: graphite.From(9), Value: int64(5)},
		{Interval: graphite.From(6), Value: int64(7)},
	}
	for _, tu := range graphite.Warp(states, msgs) {
		fmt.Printf("compute(%v, %v, %v)\n", tu.Interval, tu.State, tu.Msgs)
	}
	// Output:
	// compute([6, 9), ∞, [7])
	// compute([9, ∞), ∞, [5 7])
}

// Earliest arrival time answers "when can I first get there?"; the fixture's
// stop F is unreachable because its only inbound connection departs before
// any journey can arrive.
func ExampleRunEAT() {
	g := graphite.TransitExample()
	r, err := graphite.RunEAT(g, 0, 0, 2)
	if err != nil {
		panic(err)
	}
	for id := graphite.VertexID(0); id < 6; id++ {
		if at := graphite.EarliestArrival(r, id); at != graphite.Unreachable {
			fmt.Printf("stop %d: t=%d\n", id, at)
		}
	}
	// Output:
	// stop 0: t=0
	// stop 1: t=4
	// stop 2: t=2
	// stop 3: t=5
	// stop 4: t=6
}
