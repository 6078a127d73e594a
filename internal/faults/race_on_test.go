//go:build race

package faults

// raceEnabled reports whether the race detector instruments this build;
// alloc-count assertions skip under it (sync.Pool drops Puts there).
const raceEnabled = true
