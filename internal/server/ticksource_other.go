//go:build !linux

package server

import "errors"

// haveTimerfd says this build can wait on a timerfd at all.
const haveTimerfd = false

// openTimerfd is never called while haveTimerfd is false; it exists so
// the portable code compiles.
func openTimerfd() (tickSource, error) { return nil, errors.ErrUnsupported }
