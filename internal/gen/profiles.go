package gen

import "fmt"

// Scale multiplies the default profile sizes; 1.0 targets quick test runs,
// larger values approach benchmark scale. The paper's datasets are many
// orders of magnitude larger; DESIGN.md records the substitution.
type Scale float64

func scaled(n int, s Scale) int {
	v := int(float64(n) * float64(s))
	if v < 8 {
		v = 8
	}
	return v
}

// GPlusLike mirrors GPlus: few snapshots, unit-length edge lifespans, power
// law. The worst case for ICM: nothing to share across time.
func GPlusLike(s Scale) Profile {
	return Profile{
		Name: "gplus", Vertices: scaled(1700, s), AvgDegree: 13,
		Snapshots: 4, Topology: Powerlaw, EdgeLife: UnitLife,
		WithTravelProps: true, PropSegments: 1,
	}
}

// RedditLike mirrors Reddit: many snapshots, 96% unit-length edges with a
// long-lived minority, mild churn.
func RedditLike(s Scale) Profile {
	return Profile{
		Name: "reddit", Vertices: scaled(1200, s), AvgDegree: 18,
		Snapshots: 32, Topology: Powerlaw, EdgeLife: MixedLife, LongFrac: 0.04,
		VertexChurn: true, WithTravelProps: true, PropSegments: 2,
	}
}

// USRNLike mirrors the US road network: static planar topology spanning the
// whole lifetime, huge diameter, frequently changing edge properties.
func USRNLike(s Scale) Profile {
	return Profile{
		Name: "usrn", Vertices: scaled(1600, s), AvgDegree: 4,
		Snapshots: 48, Topology: Grid, EdgeLife: FullLife,
		WithTravelProps: true, PropSegments: 10,
	}
}

// MAGLike mirrors the Microsoft Academic Graph: long lifetime, long entity
// lifespans, churn as publications accumulate.
func MAGLike(s Scale) Profile {
	return Profile{
		Name: "mag", Vertices: scaled(2300, s), AvgDegree: 9,
		Snapshots: 64, Topology: Powerlaw, EdgeLife: LongLife,
		VertexChurn: true, WithTravelProps: true, PropSegments: 3,
	}
}

// TwitterLike mirrors Twitter: edge lifespans spanning almost the whole
// graph lifetime — the best case for ICM's compute and message sharing.
func TwitterLike(s Scale) Profile {
	return Profile{
		Name: "twitter", Vertices: scaled(2200, s), AvgDegree: 24,
		Snapshots: 30, Topology: Powerlaw, EdgeLife: LongLife,
		WithTravelProps: true, PropSegments: 2,
	}
}

// WebUKLike mirrors WebUK: few snapshots, mixed lifespans, high degree.
func WebUKLike(s Scale) Profile {
	return Profile{
		Name: "webuk", Vertices: scaled(2600, s), AvgDegree: 30,
		Snapshots: 12, Topology: Powerlaw, EdgeLife: MixedLife, LongFrac: 0.45,
		WithTravelProps: true, PropSegments: 2,
	}
}

// AllProfiles returns the six dataset profiles of Table 1 at the given
// scale, in the paper's order.
func AllProfiles(s Scale) []Profile {
	return []Profile{
		GPlusLike(s), RedditLike(s), USRNLike(s),
		TwitterLike(s), MAGLike(s), WebUKLike(s),
	}
}

// LDBCLike mirrors the weak-scaling generator: a power-law ("Facebook
// degree distribution") graph whose size grows with the machine count m,
// perturbed over 128 time-points.
func LDBCLike(machines int, s Scale) Profile {
	return Profile{
		Name:     fmt.Sprintf("ldbc-%dm", machines),
		Vertices: scaled(1000, s) * machines, AvgDegree: 10,
		Snapshots: 16, Topology: Powerlaw, EdgeLife: MixedLife, LongFrac: 0.5,
		WithTravelProps: true, PropSegments: 2,
	}
}

// SkewedLike is the placement-stress profile (cluster_pr's graph): a
// heavy-tailed power law whose hub mass is spread over many low-index
// vertices (Zipf 1.15 ~ a degree exponent near 1.9). That makes the skew
// *fixable* — a partitioner can split the hubs — unlike a steeper Zipf where
// one mega-vertex is an indivisible straggler no placement can balance
// below. Mixed lifespans keep the active frontier shifting over time.
func SkewedLike(s Scale) Profile {
	return Profile{
		Name: "skewed", Vertices: scaled(2000, s), AvgDegree: 16,
		Snapshots: 24, Topology: Powerlaw, EdgeLife: MixedLife, LongFrac: 0.35,
		WithTravelProps: true, PropSegments: 2, Skew: 1.15,
	}
}

// Tiny returns a small random profile for property tests and oracles.
func Tiny(name string, vertices, degree, snapshots int, life LifespanDist) Profile {
	return Profile{
		Name: name, Vertices: vertices, AvgDegree: degree,
		Snapshots: snapshots, Topology: Powerlaw, EdgeLife: life, LongFrac: 0.3,
		WithTravelProps: true, PropSegments: 2,
	}
}
