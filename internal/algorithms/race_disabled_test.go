//go:build !race

package algorithms_test

const raceEnabled = false
