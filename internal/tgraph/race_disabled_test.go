//go:build !race

package tgraph

const raceEnabled = false
