package clock

import (
	"testing"
	"time"
)

var epoch = time.Unix(1_700_000_000, 0)

// fired reports whether a value waits in t's channel, taking it.
func fired(t Timer) bool {
	select {
	case <-t.C():
		return true
	default:
		return false
	}
}

// TestFakeFiresAtTheDeadline: a timer fires when the fake time reaches its
// deadline, not a nanosecond before, and delivers the deadline; Now moves
// only by Advance.
func TestFakeFiresAtTheDeadline(t *testing.T) {
	f := NewFake(epoch)
	tm := f.NewTimer(time.Second)
	if n := f.Advance(time.Second - time.Nanosecond); n != 0 || fired(tm) {
		t.Fatalf("fired %d timers before the deadline", n)
	}
	if n := f.Advance(time.Nanosecond); n != 1 {
		t.Fatalf("fired %d timers at the deadline, want 1", n)
	}
	if got := f.Now(); !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("Now = %v, want epoch + 1s", got)
	}
	select {
	case at := <-tm.C():
		if !at.Equal(epoch.Add(time.Second)) {
			t.Errorf("delivered %v, want the deadline", at)
		}
	default:
		t.Fatal("did not fire at its deadline")
	}
	if n := f.Advance(time.Hour); n != 0 || fired(tm) {
		t.Fatal("a fired timer fired again")
	}
}

// TestFakeStop keeps time.Timer's answer: Stop reports whether it disarmed the
// timer, and a stopped timer never fires.
func TestFakeStop(t *testing.T) {
	f := NewFake(epoch)
	tm := f.NewTimer(time.Minute)
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop: want true for an armed timer, then false")
	}
	if n := f.Advance(time.Hour); n != 0 || fired(tm) {
		t.Fatal("a stopped timer fired")
	}
	fresh := f.NewTimer(time.Second)
	f.Advance(time.Second)
	if fresh.Stop() || !fired(fresh) {
		t.Fatal("Stop of a fired timer: want false, and its value still waiting")
	}
	if now := f.NewTimer(0); f.Advance(0) != 1 || !fired(now) {
		t.Fatal("a timer for 0 did not fire at Advance(0)")
	}
}

// TestBlockUntil returns once the armed-timer count it waits for is reached
// by another goroutine.
func TestBlockUntil(t *testing.T) {
	f := NewFake(epoch)
	tm := f.NewTimer(time.Second)
	f.BlockUntil(1)
	go tm.Stop()
	f.BlockUntil(0)
	go f.NewTimer(time.Second)
	f.BlockUntil(1)
}
