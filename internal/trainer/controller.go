package trainer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qfe/internal/drift"
	"qfe/internal/serve"
)

// ControllerConfig assembles a Controller.
type ControllerConfig struct {
	// Retrain is one attempt of the pipeline a drift alarm triggers —
	// Retrainer.Run in the daemon. It must honor ctx, which Close cancels,
	// and reports how many labels it took from journaled feedback. Required.
	Retrain func(ctx context.Context) (journalLabels int, err error)
	// Monitor, when non-nil, is reset after a successful publish and rearmed
	// (threshold widened by rearmFactor) after a canary rejection, so a
	// workload the retrained model genuinely cannot fit stops ringing the
	// same alarm forever.
	Monitor *drift.Monitor
	// Cooldown suppresses new retrains for this long after one starts;
	// alarms often arrive in bursts. Default 1m.
	Cooldown time.Duration
	// Backoff is the delay before the first restart of a failed attempt; it
	// doubles per consecutive failure. Default 500ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Default 30s.
	MaxBackoff time.Duration
	// MaxFailures quarantines the retrain after this many consecutive
	// failed attempts. Default 5.
	MaxFailures int
}

const (
	// jobName is the one job the controller runs, as /v1/drift lists it.
	jobName = "retrain"
	// rearmFactor widens the q-error drift threshold after a canary
	// rejection.
	rearmFactor = 2
)

func (c *ControllerConfig) withDefaults() error {
	if c.Retrain == nil {
		return fmt.Errorf("trainer: ControllerConfig.Retrain is required")
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Minute
	}
	if c.Backoff <= 0 {
		c.Backoff = 500 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.MaxBackoff < c.Backoff {
		c.MaxBackoff = c.Backoff
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 5
	}
	return nil
}

// JobState is where a retrain sits in the controller's state machine:
//
//	alarm → running → done                       (attempt returned nil)
//	              ↘ → backoff → running → …      (transient failure)
//	              ↘ → failed                     (the canary rejected the model)
//	              ↘ → quarantined                (MaxFailures consecutive failures)
//	              ↘ → canceled                   (controller closed)
type JobState string

const (
	// JobRunning means an attempt is executing.
	JobRunning JobState = "running"
	// JobBackoff means the last attempt failed and the next is scheduled.
	JobBackoff JobState = "backoff"
	// JobDone means an attempt published its model; terminal.
	JobDone JobState = "done"
	// JobFailed means the canary rejected the retrained model. Retrying
	// would deterministically rebuild the same rejected model; terminal.
	JobFailed JobState = "failed"
	// JobQuarantined means MaxFailures consecutive attempts failed — the
	// poison-pill brake that stops a crashing retrain from looping forever;
	// terminal.
	JobQuarantined JobState = "quarantined"
	// JobCanceled means the controller closed mid-retrain; terminal.
	JobCanceled JobState = "canceled"
)

// JobStatus is a point-in-time snapshot of the latest retrain.
type JobStatus struct {
	Name      string    `json:"name"`
	State     JobState  `json:"state"`
	Attempts  int       `json:"attempts"`
	Failures  int       `json:"failures"` // consecutive, reset by a nil attempt
	LastError string    `json:"lastError,omitempty"`
	UpdatedAt time.Time `json:"updatedAt"`
}

// Controller is the glue between drift detection and retraining: its
// HandleEvent is the drift monitor's OnEvent callback. Each alarm, unless
// one arrived within the cooldown or a retrain is still in progress, starts
// a retrain on the controller's own goroutine: attempts restarted with
// doubling backoff until one publishes, the canary rejects the model, the
// failures reach MaxFailures, or Close. The only road to traffic is the
// lifecycle canary gate inside the attempt.
type Controller struct {
	cfg    ControllerConfig
	ctx    context.Context // canceled by Close; every attempt runs under it
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	lastStart time.Time
	job       JobStatus // the latest retrain; the zero value before the first
	counters  controllerCounters
}

type controllerCounters struct {
	eventsSeen        uint64
	eventsSuppressed  uint64
	retrainsStarted   uint64
	retrainsSucceeded uint64
	canaryRejected    uint64
	retrainsFailed    uint64
	journalLabels     uint64
}

// NewController validates cfg and returns a Controller. Call Close to stop
// it and wait for a retrain in progress.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Controller{cfg: cfg, ctx: ctx, cancel: cancel}, nil
}

// HandleEvent reacts to one drift alarm. It is fast and non-blocking — safe
// to call synchronously from the monitor's observing goroutine — and
// reports whether a retrain was actually started. An alarm inside the
// cooldown, while a retrain is in progress (which already covers it), or
// after Close is counted as suppressed and starts nothing.
func (c *Controller) HandleEvent(drift.Event) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters.eventsSeen++
	now := time.Now()
	running := c.job.State == JobRunning || c.job.State == JobBackoff
	if c.ctx.Err() != nil || running || (!c.lastStart.IsZero() && now.Sub(c.lastStart) < c.cfg.Cooldown) {
		c.counters.eventsSuppressed++
		return false
	}
	c.counters.retrainsStarted++
	c.lastStart = now
	c.job = JobStatus{Name: jobName, State: JobRunning, UpdatedAt: now}
	c.wg.Add(1)
	go c.run()
	return true
}

// run drives one retrain through the state machine until terminal.
func (c *Controller) run() {
	defer c.wg.Done()
	backoff := c.cfg.Backoff
	for {
		c.update(func(st *JobStatus) { st.State = JobRunning; st.Attempts++ })
		labels, err := c.attempt()
		c.count(&c.counters.journalLabels, labels)
		// The monitor is called outside c.mu: it calls HandleEvent under its
		// own lock.
		switch {
		case err == nil:
			c.count(&c.counters.retrainsSucceeded, 1)
			if c.cfg.Monitor != nil {
				c.cfg.Monitor.Reset()
			}
			c.finish(JobDone, nil)
			return
		case errors.Is(err, serve.ErrCanaryRejected):
			c.count(&c.counters.canaryRejected, 1)
			if c.cfg.Monitor != nil {
				c.cfg.Monitor.Rearm(rearmFactor)
			}
			c.finish(JobFailed, err)
			return
		}
		c.count(&c.counters.retrainsFailed, 1)
		if c.ctx.Err() != nil {
			// The controller is closing; the attempt's error is cancellation
			// fallout, not a verdict on the retrain.
			c.finish(JobCanceled, err)
			return
		}

		failures := 0
		c.update(func(st *JobStatus) {
			st.Failures++
			st.State = JobBackoff
			st.LastError = err.Error()
			failures = st.Failures
		})
		if failures >= c.cfg.MaxFailures {
			c.finish(JobQuarantined, err)
			return
		}

		t := time.NewTimer(backoff)
		select {
		case <-c.ctx.Done():
			t.Stop()
			c.finish(JobCanceled, err)
			return
		case <-t.C:
		}
		backoff = min(2*backoff, c.cfg.MaxBackoff)
	}
}

// attempt runs one attempt, converting a panic into an error so a crashing
// retrain trips the poison-pill counter instead of killing the process.
func (c *Controller) attempt() (labels int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trainer: job %q panicked: %v", jobName, r)
		}
	}()
	return c.cfg.Retrain(c.ctx)
}

func (c *Controller) count(counter *uint64, n int) {
	c.mu.Lock()
	*counter += uint64(n)
	c.mu.Unlock()
}

func (c *Controller) update(mut func(st *JobStatus)) {
	c.mu.Lock()
	mut(&c.job)
	c.job.UpdatedAt = time.Now()
	c.mu.Unlock()
}

// finish records the terminal state, which frees the controller for the next
// alarm.
func (c *Controller) finish(state JobState, err error) {
	c.update(func(st *JobStatus) {
		st.State = state
		if err != nil {
			st.LastError = err.Error()
		}
	})
}

// Counters returns the controller's cumulative counters in a flat,
// /metrics friendly form.
func (c *Controller) Counters() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]any{
		"retrain_events_seen":       c.counters.eventsSeen,
		"retrain_events_suppressed": c.counters.eventsSuppressed,
		"retrain_started":           c.counters.retrainsStarted,
		"retrain_succeeded":         c.counters.retrainsSucceeded,
		"retrain_canary_rejected":   c.counters.canaryRejected,
		"retrain_failed":            c.counters.retrainsFailed,
		"retrain_journal_labels":    c.counters.journalLabels,
	}
}

// Status reports counters plus the latest retrain (none before the first
// alarm), the retraining half of the /v1/drift payload.
func (c *Controller) Status() map[string]any {
	jobs := []JobStatus{}
	c.mu.Lock()
	if c.job.Name != "" {
		jobs = append(jobs, c.job)
	}
	c.mu.Unlock()
	return map[string]any{"counters": c.Counters(), "jobs": jobs}
}

// Close cancels a retrain in progress and waits for it to finish; later
// alarms start nothing. Idempotent.
func (c *Controller) Close() {
	c.mu.Lock() // no HandleEvent is between its check of ctx and its wg.Add
	c.cancel()
	c.mu.Unlock()
	c.wg.Wait()
}
