// Package drift detects when a served cardinality model has gone stale.
//
// Monitor is a streaming Page-Hinkley test over the log2 q-error of the
// feedback /v1/estimate already collects. The q-error of a fresh model is a
// roughly stationary signal; when the data or workload shifts, its mean rises
// and stays risen. Page-Hinkley accumulates deviations of the signal from its
// running mean and alarms when the accumulated deviation exceeds a threshold —
// a classic change-point test that reacts to sustained degradation, not to a
// single catastrophically mis-estimated query.
//
// The only input is the client's reported actuals. The daemon's table is
// built once at boot and never changes, so those actuals are the only new
// truth there is, and the only thing a retrain can learn from; a query whose
// literals fall outside a column's range is not a symptom of anything (a
// predicate below a column's minimum simply selects every row).
//
// The monitor emits typed Events. It never retrains or publishes anything
// itself: internal/trainer owns the response, and every model produced in
// response to drift still passes the serve.Lifecycle canary gate.
package drift

import (
	"fmt"
	"math"
	"sync"
	"time"

	"qfe/internal/metrics"
)

// Kind labels which detector produced an Event.
type Kind string

// KindQError marks events from the Page-Hinkley q-error detector.
const KindQError Kind = "qerror"

// Severity grades an Event by how far past its threshold the detector
// statistic landed.
type Severity string

const (
	// SeverityWarn is a drift alarm just past threshold.
	SeverityWarn Severity = "warn"
	// SeverityCritical is a drift alarm at twice threshold or beyond.
	SeverityCritical Severity = "critical"
)

// Event is one drift alarm.
type Event struct {
	Kind     Kind      `json:"kind"`
	Severity Severity  `json:"severity"`
	At       time.Time `json:"at"`
	// Stat is the Page-Hinkley deviation at alarm time.
	Stat float64 `json:"stat"`
	// Threshold is the effective threshold the statistic exceeded.
	Threshold float64 `json:"threshold"`
	// Samples is how many observations the detector had consumed.
	Samples int `json:"samples"`
	// Detail is a human-readable summary.
	Detail string `json:"detail"`
}

// QErrorConfig tunes the Page-Hinkley detector.
type QErrorConfig struct {
	// Delta is the tolerated drift of the mean log2 q-error; deviations
	// smaller than Delta never accumulate.
	Delta float64
	// Lambda is the alarm threshold on the accumulated deviation.
	Lambda float64
	// MinSamples suppresses alarms until this many observations arrived.
	MinSamples int
	// MaxLogQ clamps each observation's log2 q-error, bounding the damage
	// any single pathological query can do to the statistic.
	MaxLogQ float64
}

// DefaultQErrorConfig is tuned for the reproduction's workloads: a model
// whose median q-error doubles for ~30 consecutive queries alarms.
func DefaultQErrorConfig() QErrorConfig {
	return QErrorConfig{Delta: 0.05, Lambda: 25, MinSamples: 50, MaxLogQ: 20}
}

func (c QErrorConfig) validate() error {
	switch {
	case c.Delta < 0:
		return fmt.Errorf("drift: Delta = %v, want >= 0", c.Delta)
	case c.Lambda <= 0:
		return fmt.Errorf("drift: Lambda = %v, want > 0", c.Lambda)
	case c.MinSamples < 1:
		return fmt.Errorf("drift: MinSamples = %d, want >= 1", c.MinSamples)
	case c.MaxLogQ <= 0:
		return fmt.Errorf("drift: MaxLogQ = %v, want > 0", c.MaxLogQ)
	}
	return nil
}

// maxRecentEvents bounds the event history Status reports.
const maxRecentEvents = 32

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// QError tunes the detector; the zero value means DefaultQErrorConfig.
	QError QErrorConfig
	// OnEvent, when non-nil, receives every alarm synchronously from the
	// observing goroutine. Keep it fast and non-blocking: the trainer's
	// controller starts a goroutine, or counts the alarm, and returns.
	OnEvent func(Event)
}

// Monitor runs the Page-Hinkley test over the serving feedback stream, keeps
// the counters and recent-event history behind /v1/drift, and forwards
// alarms to the retraining controller. Safe for concurrent use.
type Monitor struct {
	cfg     QErrorConfig
	onEvent func(Event)

	mu       sync.Mutex
	n        int
	mean     float64 // running mean of the clamped log2 q-error
	mT       float64 // accumulated deviation
	minMT    float64 // running minimum of mT
	widen    float64 // threshold multiplier, raised by Rearm after failed canaries
	observed uint64
	alarms   uint64
	recent   []Event
}

// NewMonitor validates cfg and returns an armed monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.QError == (QErrorConfig{}) {
		cfg.QError = DefaultQErrorConfig()
	}
	if err := cfg.QError.validate(); err != nil {
		return nil, err
	}
	return &Monitor{cfg: cfg.QError, onEvent: cfg.OnEvent, widen: 1}, nil
}

// ObserveFeedback feeds one served estimate to the detector. hasActual says
// whether actual is real ground truth: a genuine zero-row actual drives the
// detector (QError clamps the truth to 1), while an observation without
// feedback is only counted. The explicit bit exists because a bare actual==0
// used to mean both "no feedback" and "empty result", and phantom zero
// actuals must never reach the detector. An alarm resets the statistic, so
// one episode yields one event; a widened threshold is kept until Reset.
func (m *Monitor) ObserveFeedback(est, actual float64, hasActual bool) {
	m.mu.Lock()
	m.observed++
	if !hasActual {
		m.mu.Unlock()
		return
	}
	x := math.Log2(metrics.QError(actual, est))
	if math.IsNaN(x) || x < 0 {
		x = 0 // q-error is defined >= 1; defend against bad callers
	}
	x = min(x, m.cfg.MaxLogQ)
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
	m.mT += x - m.mean - m.cfg.Delta
	m.minMT = min(m.minMT, m.mT)
	ph := m.mT - m.minMT
	threshold := m.cfg.Lambda * m.widen
	if m.n < m.cfg.MinSamples || ph <= threshold {
		m.mu.Unlock()
		return
	}
	severity := SeverityWarn
	if ph >= 2*threshold {
		severity = SeverityCritical
	}
	ev := Event{
		Kind:      KindQError,
		Severity:  severity,
		At:        time.Now(),
		Stat:      ph,
		Threshold: threshold,
		Samples:   m.n,
		Detail: fmt.Sprintf("Page-Hinkley deviation %.2f exceeded %.2f after %d samples (mean log2 q-error %.2f)",
			ph, threshold, m.n, m.mean),
	}
	m.resetLocked()
	m.alarms++
	m.recent = append(m.recent, ev)
	if len(m.recent) > maxRecentEvents {
		m.recent = m.recent[len(m.recent)-maxRecentEvents:]
	}
	cb := m.onEvent
	m.mu.Unlock()
	if cb != nil {
		cb(ev)
	}
}

func (m *Monitor) resetLocked() {
	m.n, m.mean, m.mT, m.minMT = 0, 0, 0, 0
}

// Reset clears the accumulated statistic and restores the original
// threshold; called after a retrained model passes the canary and publishes.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resetLocked()
	m.widen = 1
}

// Rearm resets the statistic but multiplies the effective threshold by
// factor (> 1). It is the response to a failed canary: the drift is real
// but retraining did not help, so alarming again at the same sensitivity
// would only burn retraining capacity. Successive Rearms compound.
func (m *Monitor) Rearm(factor float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resetLocked()
	m.widen *= max(factor, 1)
}

// Counters returns the monitor's cumulative counters in a flat, /metrics
// friendly form.
func (m *Monitor) Counters() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]any{
		"drift_feedback_observed": m.observed,
		"drift_alarms_qerror":     m.alarms,
	}
}

// Status returns the detector's live statistic plus recent events, the
// payload behind /v1/drift.
func (m *Monitor) Status() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]any{
		"observed": m.observed,
		"alarms":   map[string]uint64{string(KindQError): m.alarms},
		"qerror": map[string]any{
			"samples":   m.n,
			"mean_logq": m.mean,
			"stat":      m.mT - m.minMT,
			"threshold": m.cfg.Lambda * m.widen,
			"widen":     m.widen,
		},
		"recent": append([]Event(nil), m.recent...),
	}
}
