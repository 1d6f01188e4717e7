// Package clock is the feedback journal's time source, for work a test must
// drive without waiting: its record stamps, segment age, flush timer and
// flush timing. The request path and the lifecycle's timestamps read time.Now
// directly: the chain reads the clock against a request's deadline before
// each stage, and no test needs those readings replaced.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock tells the time and makes timers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is the part of *time.Timer a Clock's user needs, with its meaning.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
}

// Real is the wall clock.
type Real struct{}

func (Real) Now() time.Time                 { return time.Now() }
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.Timer.C }

// Fake is a Clock whose time moves only by Advance. A timer fires, once, by a
// send on its one-slot channel when the fake time reaches its deadline. It is
// safe for concurrent use.
type Fake struct {
	mu      sync.Mutex
	changed sync.Cond // on mu: broadcast when a timer is armed or disarmed
	now     time.Time
	armed   []*fakeTimer
}

// NewFake returns a Fake that reads now.
func NewFake(now time.Time) *Fake {
	f := &Fake{now: now}
	f.changed.L = &f.mu
	return f
}

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer implements Clock. The timer fires at the first Advance that
// reaches its deadline, Advance(0) for a d <= 0.
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{f: f, c: make(chan time.Time, 1), at: f.now.Add(d)}
	f.armed = append(f.armed, t)
	f.changed.Broadcast()
	return t
}

// Advance moves the time forward by d, fires every armed timer whose deadline
// it reached, and returns how many it fired.
func (f *Fake) Advance(d time.Duration) (fired int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	f.armed = slices.DeleteFunc(f.armed, func(t *fakeTimer) bool {
		if t.at.After(f.now) {
			return false
		}
		t.c <- t.at // never blocks: each timer fires once into its empty slot
		fired++
		return true
	})
	f.changed.Broadcast()
	return fired
}

// BlockUntil returns once exactly n of f's timers are armed: how a test
// learns, without sleeping, that the goroutine it drives has armed or stopped
// its timer.
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.armed) != n {
		f.changed.Wait()
	}
}

type fakeTimer struct {
	f  *Fake
	c  chan time.Time
	at time.Time
}

func (t *fakeTimer) C() <-chan time.Time { return t.c }

func (t *fakeTimer) Stop() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	n := len(t.f.armed)
	t.f.armed = slices.DeleteFunc(t.f.armed, func(a *fakeTimer) bool { return a == t })
	t.f.changed.Broadcast()
	return len(t.f.armed) < n
}
