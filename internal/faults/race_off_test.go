//go:build !race

package faults

// raceEnabled reports whether the race detector instruments this build
// (see race_on_test.go).
const raceEnabled = false
