package resilience

import (
	"context"
	"sync"
	"testing"
	"time"
)

// observation is everything a caller can learn from a context without
// waiting on it past slack: Err is read before and after Done, so a lazy
// deadline is seen both unarmed and armed.
type observation struct {
	deadline    time.Time
	hasDeadline bool
	errBefore   error
	closed      bool
	errAfter    error
	value       any
	missing     any
}

type ctxKey string

// observe reads ctx. A context whose Err is set must close Done, allowing
// slack for a timer to fire; one whose Err is nil must not have closed it.
func observe(ctx context.Context, slack time.Duration) observation {
	o := observation{errBefore: ctx.Err(), value: ctx.Value(ctxKey("k")), missing: ctx.Value(ctxKey("absent"))}
	o.deadline, o.hasDeadline = ctx.Deadline()
	if o.errBefore != nil {
		select {
		case <-ctx.Done():
			o.closed = true
		case <-time.After(slack):
		}
	} else {
		select {
		case <-ctx.Done():
			o.closed = true
		default:
		}
	}
	o.errAfter = ctx.Err()
	return o
}

// TestLazyDeadlineIsWithDeadline holds WithDeadline to context.WithDeadline,
// its oracle, over the same parent and instant: deadline, Err before and after
// Done, whether Done is closed, and values. A parent canceled after the
// deadline has passed is left out on purpose: the two answer with different
// context errors there (see WithDeadline).
func TestLazyDeadlineIsWithDeadline(t *testing.T) {
	type world struct {
		cancelParent context.CancelFunc
		cancel       context.CancelFunc
	}
	for _, c := range []struct {
		name string
		in   time.Duration // at, from now
		// parentDeadline, when set, gives the parent a deadline this far from now.
		parentDeadline time.Duration
		before         func(parentCancel context.CancelFunc) // before the child exists
		after          func(w world)                         // before it is observed
	}{
		{name: "live", in: time.Hour},
		{name: "expired", in: -time.Second},
		{name: "parent canceled before", in: time.Hour, before: func(cancel context.CancelFunc) { cancel() }},
		{name: "parent canceled after", in: time.Hour, after: func(w world) { w.cancelParent() }},
		{name: "parent with an earlier deadline", in: time.Hour, parentDeadline: time.Minute},
		{name: "parent with an expired deadline", in: time.Hour, parentDeadline: -time.Second},
		{name: "parent with a later deadline", in: time.Minute, parentDeadline: time.Hour},
		{name: "cancel called", in: time.Hour, after: func(w world) { w.cancel() }},
		{name: "cancel called twice", in: time.Hour, after: func(w world) { w.cancel(); w.cancel() }},
		{name: "cancel called after expiry", in: -time.Second, after: func(w world) { w.cancel() }},
		{name: "cancel then parent canceled", in: time.Hour, after: func(w world) { w.cancel(); w.cancelParent() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func(with func(context.Context, time.Time) (context.Context, context.CancelFunc), at time.Time) observation {
				parent, cancelParent := context.WithCancel(context.WithValue(context.Background(), ctxKey("k"), "v"))
				defer cancelParent()
				if c.parentDeadline != 0 {
					var stop context.CancelFunc
					parent, stop = context.WithDeadline(parent, at.Add(-c.in).Add(c.parentDeadline))
					defer stop()
				}
				if c.before != nil {
					c.before(cancelParent)
				}
				ctx, cancel := with(parent, at)
				defer cancel()
				if c.after != nil {
					c.after(world{cancelParent: cancelParent, cancel: cancel})
				}
				return observe(ctx, time.Second)
			}
			at := time.Now().Add(c.in)
			want := build(context.WithDeadline, at)
			got := build(WithDeadline, at)
			if got != want {
				t.Errorf("WithDeadline:\n got %+v\nwant %+v (context.WithDeadline)", got, want)
			}
		})
	}
}

// TestLazyDeadlineDoneClosesAtTheDeadline: a caller that selects on Done —
// the one thing that arms a timer — wakes at the deadline, not before it and
// not long after, and then reads DeadlineExceeded, as from the oracle.
func TestLazyDeadlineDoneClosesAtTheDeadline(t *testing.T) {
	const in, slack = 40 * time.Millisecond, 500 * time.Millisecond
	for name, with := range map[string]func(context.Context, time.Time) (context.Context, context.CancelFunc){
		"context.WithDeadline": context.WithDeadline,
		"WithDeadline":         WithDeadline,
	} {
		at := time.Now().Add(in)
		ctx, cancel := with(context.Background(), at)
		if err := ctx.Err(); err != nil {
			t.Fatalf("%s: Err %v before the deadline", name, err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(in + slack):
			t.Fatalf("%s: Done still open %v after the deadline", name, slack)
		}
		if now := time.Now(); now.Before(at) {
			t.Errorf("%s: Done closed %v before the deadline", name, at.Sub(now))
		}
		if err := ctx.Err(); err != context.DeadlineExceeded {
			t.Errorf("%s: Err %v after Done, want DeadlineExceeded", name, err)
		}
		cancel()
		if err := ctx.Err(); err != context.DeadlineExceeded {
			t.Errorf("%s: Err %v after a late cancel, want DeadlineExceeded still", name, err)
		}
	}
}

// TestLazyDeadlineArmAndCancelRace: Done arming the timer and cancel
// releasing it meet in any order; every Done channel closes and Err is
// Canceled. The race detector is the referee.
func TestLazyDeadlineArmAndCancelRace(t *testing.T) {
	for i := 0; i < 200; i++ {
		ctx, cancel := WithDeadline(context.Background(), time.Now().Add(time.Hour))
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Second):
					t.Error("Done never closed after cancel")
				}
			}()
		}
		cancel()
		wg.Wait()
		if err := ctx.Err(); err != context.Canceled {
			t.Fatalf("Err %v after cancel, want Canceled", err)
		}
	}
}
