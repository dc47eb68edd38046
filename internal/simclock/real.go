package simclock

import "time"

// Real is the wall clock: the live daemon's Clock. This file is the single
// place under internal/ (outside tests) allowed to read the wall clock;
// TestNoWallClockOutsideReal holds every other file there to that.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Default returns the clock to use when none was injected: the wall clock.
func Default(c Clock) Clock {
	if c != nil {
		return c
	}
	return Real{}
}
