//go:build !linux

package harness

// StartPauseWatch has no watcher to start here: waves are never voided.
func StartPauseWatch() *PauseWatch { return nil }
