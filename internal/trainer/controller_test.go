package trainer

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/drift"
	"qfe/internal/serve"
	"qfe/internal/testutil"
)

// fastController builds a controller closed with the test; unless the test
// says otherwise its backoff is 1ms doubling to 4ms.
func fastController(t *testing.T, cfg ControllerConfig) *Controller {
	t.Helper()
	if cfg.Backoff == 0 {
		cfg.Backoff, cfg.MaxBackoff = time.Millisecond, 4*time.Millisecond
	}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func alarm(c *Controller) bool { return c.HandleEvent(drift.Event{}) }

func jobs(c *Controller) []JobStatus { return c.Status()["jobs"].([]JobStatus) }

// waitTerminal blocks until the controller's retrain has left the running
// and backoff states — with a deadline wide enough for the chaos run under
// the race detector — and returns its final status.
func waitTerminal(t *testing.T, c *Controller) JobStatus {
	t.Helper()
	for deadline := time.Now().Add(120 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		if js := jobs(c); len(js) == 1 && js[0].State != JobRunning && js[0].State != JobBackoff {
			return js[0]
		}
	}
	t.Fatalf("retrain did not reach a terminal state: %+v", jobs(c))
	return JobStatus{}
}

// wantCounters checks the named retrain_* counters; those not named must be 0.
func wantCounters(t *testing.T, c *Controller, want map[string]uint64) {
	t.Helper()
	for key, got := range c.Counters() {
		if got != want[key[len("retrain_"):]] {
			t.Errorf("%s = %d, want %d (all: %v)", key, got, want[key[len("retrain_"):]], c.Counters())
		}
	}
}

// testMonitor is a real drift monitor at its defaults; widen reads
// back what Reset (1) and Rearm (×factor) did to its q-error threshold.
func testMonitor(t *testing.T) *drift.Monitor {
	t.Helper()
	mon, err := drift.NewMonitor(drift.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

func widen(mon *drift.Monitor) float64 {
	return mon.Status()["qerror"].(map[string]any)["widen"].(float64)
}

// TestSupervisorRunsJobToDone: one alarm, one clean attempt — state done, the
// monitor back at full sensitivity — and a second alarm inside the cooldown
// is counted as suppressed and starts nothing.
func TestSupervisorRunsJobToDone(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	mon := testMonitor(t)
	mon.Rearm(3) // an earlier rejection widened it; success must undo that
	var attempts atomic.Int32
	c := fastController(t, ControllerConfig{
		Monitor: mon,
		Retrain: func(context.Context) (int, error) { attempts.Add(1); return 7, nil },
	})
	if len(jobs(c)) != 0 {
		t.Error("a retrain is listed before the first alarm")
	}
	if !alarm(c) {
		t.Fatal("the first alarm started nothing")
	}
	st := waitTerminal(t, c)
	if st.Name != "retrain" || st.State != JobDone || st.Attempts != 1 || st.Failures != 0 || st.LastError != "" {
		t.Errorf("status = %+v, want retrain done after 1 attempt", st)
	}
	if w := widen(mon); w != 1 {
		t.Errorf("q-error widen after a published retrain = %v, want 1 (Monitor.Reset)", w)
	}

	if alarm(c) {
		t.Error("an alarm inside the cooldown started a retrain")
	}
	time.Sleep(5 * time.Millisecond)
	if attempts.Load() != 1 {
		t.Errorf("%d attempts, want 1", attempts.Load())
	}
	wantCounters(t, c, map[string]uint64{"events_seen": 2, "events_suppressed": 1, "started": 1, "succeeded": 1, "journal_labels": 7})
}

// TestSupervisorRetriesTransientFailures: failed attempts restart after a
// backoff that doubles up to MaxBackoff, and the journal labels of every
// attempt, failed or not, add up.
func TestSupervisorRetriesTransientFailures(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var starts []time.Time // written by the retrain goroutine, read once it is done
	c := fastController(t, ControllerConfig{
		Backoff:     2 * time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		MaxFailures: 10,
		Retrain: func(context.Context) (int, error) {
			if starts = append(starts, time.Now()); len(starts) < 5 {
				return 1, fmt.Errorf("transient")
			}
			return 1, nil
		},
	})
	alarm(c)
	st := waitTerminal(t, c)
	if st.State != JobDone || st.Attempts != 5 || st.Failures != 4 || st.LastError != "transient" {
		t.Fatalf("status = %+v, want done after 5 attempts, 4 failures, last error kept", st)
	}
	for i, want := range []time.Duration{2, 4, 5, 5} {
		if gap := starts[i+1].Sub(starts[i]); gap < want*time.Millisecond {
			t.Errorf("attempt %d started %v after attempt %d, want at least %dms", i+2, gap, i+1, want)
		}
	}
	wantCounters(t, c, map[string]uint64{"events_seen": 1, "started": 1, "failed": 4, "succeeded": 1, "journal_labels": 5})
}

// TestSupervisorPermanentFailureStopsRetries: a canary rejection is final —
// a retry would rebuild the same rejected model — and rearms the monitor
// once, its threshold doubled.
func TestSupervisorPermanentFailureStopsRetries(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	mon := testMonitor(t)
	var attempts atomic.Int32
	c := fastController(t, ControllerConfig{
		Monitor: mon,
		Retrain: func(context.Context) (int, error) {
			attempts.Add(1)
			return 0, fmt.Errorf("publish: %w", serve.ErrCanaryRejected)
		},
	})
	alarm(c)
	st := waitTerminal(t, c)
	if st.State != JobFailed || st.Attempts != 1 || st.LastError != "publish: "+serve.ErrCanaryRejected.Error() {
		t.Fatalf("status = %+v, want failed after 1 attempt", st)
	}
	time.Sleep(10 * time.Millisecond) // several backoffs' worth: nothing may restart
	if attempts.Load() != 1 {
		t.Errorf("%d attempts, want 1 (a rejected model must not be retried)", attempts.Load())
	}
	if w := widen(mon); w != 2 {
		t.Errorf("q-error widen after a rejection = %v, want 2 (one Monitor.Rearm(2))", w)
	}
	wantCounters(t, c, map[string]uint64{"events_seen": 1, "started": 1, "canary_rejected": 1})
}

// TestSupervisorQuarantinesPoisonPill: a panic is a counted failure, not
// process death, and MaxFailures consecutive ones end the retrain.
func TestSupervisorQuarantinesPoisonPill(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	c := fastController(t, ControllerConfig{
		MaxFailures: 3,
		Retrain:     func(context.Context) (int, error) { panic("boom") },
	})
	alarm(c)
	st := waitTerminal(t, c)
	if st.State != JobQuarantined || st.Attempts != 3 || st.Failures != 3 || st.LastError != `trainer: job "retrain" panicked: boom` {
		t.Fatalf("status = %+v, want quarantined after 3 panicking attempts", st)
	}
	wantCounters(t, c, map[string]uint64{"events_seen": 1, "started": 1, "failed": 3})
}

// TestSupervisorCloseCancelsRunningJobs: Close cancels an attempt's context,
// or cuts a backoff short, and waits for the goroutine (VerifyNoLeaks); it
// may be called twice; an alarm after it starts nothing.
func TestSupervisorCloseCancelsRunningJobs(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, backoff := range []time.Duration{0, time.Hour} { // Close mid-attempt, Close mid-backoff
		entered := make(chan struct{}, 1)
		c := fastController(t, ControllerConfig{
			Cooldown: time.Millisecond,
			Backoff:  backoff,
			Retrain: func(ctx context.Context) (int, error) {
				entered <- struct{}{}
				if backoff == 0 {
					<-ctx.Done()
				}
				return 0, errors.New("interrupted")
			},
		})
		alarm(c)
		<-entered
		c.Close()
		if st := jobs(c)[0]; st.State != JobCanceled || st.Attempts != 1 || st.LastError != "interrupted" {
			t.Errorf("backoff %v: status after Close = %+v, want canceled in or after its first attempt", backoff, st)
		}
		c.Close()

		time.Sleep(5 * time.Millisecond) // past the cooldown: only being closed can refuse the alarm
		if alarm(c) {
			t.Errorf("backoff %v: HandleEvent after Close started a retrain", backoff)
		}
		wantCounters(t, c, map[string]uint64{"events_seen": 2, "events_suppressed": 1, "started": 1, "failed": 1})
	}
}

// TestControllerSuppressesAlarmWhileRunning: an alarm that arrives while an
// attempt is running — the cooldown long past — is covered by that retrain:
// counted as suppressed, it starts nothing. Once the retrain is over the
// next alarm starts a fresh one.
func TestControllerSuppressesAlarmWhileRunning(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var attempts atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	c := fastController(t, ControllerConfig{
		Cooldown: time.Millisecond,
		Retrain: func(context.Context) (int, error) {
			if attempts.Add(1) == 1 {
				close(started)
				<-release
			}
			return 0, nil
		},
	})
	alarm(c)
	<-started
	time.Sleep(5 * time.Millisecond)
	if alarm(c) {
		t.Error("an alarm while an attempt is running started a second retrain")
	}
	wantCounters(t, c, map[string]uint64{"events_seen": 2, "events_suppressed": 1, "started": 1})

	close(release)
	waitTerminal(t, c)
	if !alarm(c) {
		t.Fatal("an alarm after the retrain finished and the cooldown passed started nothing")
	}
	for attempts.Load() != 2 {
		time.Sleep(200 * time.Microsecond)
	}
	if st := waitTerminal(t, c); st.State != JobDone || st.Attempts != 1 {
		t.Errorf("second retrain = %+v, want a fresh status, done after 1 attempt", st)
	}
	wantCounters(t, c, map[string]uint64{"events_seen": 3, "events_suppressed": 1, "started": 2, "succeeded": 2})
}
