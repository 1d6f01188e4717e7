package resilience

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// WithDeadline is context.WithDeadline(parent, at) to every observer, except
// that it arms no timer until something asks for Done. An estimation
// deadline is read through Err alone, by the one reader it has — Resilient's
// loop, before each stage — and for that a timer, and the child it registers
// on the parent's cancelCtx, are pure overhead: Err compares the clock with at
// instead. A caller that selects on Done (nothing on the request path does)
// arms the real context.WithDeadline at its first call and wakes exactly when
// it would have.
//
// If the parent's deadline is no later than at, the parent is returned as it
// is with a no-op cancel. The cancel returned otherwise releases the timer, if
// one was armed; from then on Err reports context.Canceled unless the
// deadline had already passed.
//
// One answer differs. Err consults the parent first, so a parent canceled
// after the deadline has passed reads as the parent's error, where the
// oracle, whose timer has fired by then, says context.DeadlineExceeded. Both
// are context errors and nothing that estimates tells them apart.
//
// WithDeadline is small enough to inline, so a caller that only defers the
// cancel (Resilient's own Timeout) keeps its closure on the stack and pays
// one allocation, the context.
func WithDeadline(parent context.Context, at time.Time) (context.Context, context.CancelFunc) {
	if d := newLazyDeadline(parent, at); d != nil {
		return d, d.cancel
	}
	return parent, noCancel
}

func noCancel() {}

// newLazyDeadline is WithDeadline's context, or nil when the parent's own
// deadline comes first.
func newLazyDeadline(parent context.Context, at time.Time) *lazyDeadline {
	if cur, ok := parent.Deadline(); ok && !cur.After(at) {
		return nil
	}
	return &lazyDeadline{parent: parent, at: at}
}

// lazyDeadline is WithDeadline's context. canceled is set by a cancel that
// ran before the deadline; mu orders the arming of done against cancel, so a
// timer armed after cancel is released at once.
type lazyDeadline struct {
	parent   context.Context
	at       time.Time
	canceled atomic.Bool

	mu   sync.Mutex
	done <-chan struct{}    // nil until Done is first called
	stop context.CancelFunc // releases done's timer
}

func (d *lazyDeadline) Deadline() (time.Time, bool) { return d.at, true }

func (d *lazyDeadline) Value(key any) any { return d.parent.Value(key) }

func (d *lazyDeadline) Err() error {
	if err := d.parent.Err(); err != nil {
		return err
	}
	if d.canceled.Load() {
		return context.Canceled
	}
	if !time.Now().Before(d.at) {
		return context.DeadlineExceeded
	}
	return nil
}

func (d *lazyDeadline) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done == nil {
		ctx, stop := context.WithDeadline(d.parent, d.at)
		d.done, d.stop = ctx.Done(), stop
		if d.canceled.Load() {
			stop()
		}
	}
	return d.done
}

func (d *lazyDeadline) cancel() {
	if time.Now().Before(d.at) {
		d.canceled.Store(true)
	}
	d.mu.Lock()
	stop := d.stop
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
}
