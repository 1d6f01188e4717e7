package drift

import (
	"sync"

	"qfe/internal/metrics"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// maxRecentEvents bounds the event history Status reports.
const maxRecentEvents = 32

// MonitorConfig configures a Monitor. Zero-value detector configs are
// replaced by their defaults.
type MonitorConfig struct {
	QError QErrorConfig
	Domain DomainConfig
	// OnEvent, when non-nil, receives every alarm synchronously from the
	// observing goroutine. Keep it fast and non-blocking: the trainer's
	// controller starts a goroutine, or counts the alarm, and returns.
	OnEvent func(Event)
}

// Monitor runs both detectors over the serving feedback stream, keeps the
// counters and recent-event history behind /v1/drift, and forwards alarms
// to the retraining controller. Safe for concurrent use.
type Monitor struct {
	qerr    *QErrorDetector
	dom     *DomainDetector
	onEvent func(Event)

	mu       sync.Mutex
	recent   []Event
	observed uint64
	alarms   map[Kind]uint64
	// alarmed is true from the first alarm until the detectors are restored
	// (Reset after a successful retrain publish, or Rearm after a rejected
	// one). The serving layer polls it to bypass its estimate cache while
	// drift is suspected — a stale cached estimate during drift is worse
	// than recomputation.
	alarmed bool
}

// NewMonitor builds a monitor whose domain detector is trained on db's
// current column statistics.
func NewMonitor(db *table.DB, cfg MonitorConfig) (*Monitor, error) {
	if cfg.QError == (QErrorConfig{}) {
		cfg.QError = DefaultQErrorConfig()
	}
	if cfg.Domain == (DomainConfig{}) {
		cfg.Domain = DefaultDomainConfig()
	}
	qd, err := NewQErrorDetector(cfg.QError)
	if err != nil {
		return nil, err
	}
	dd, err := NewDomainDetector(db, cfg.Domain)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		qerr:    qd,
		dom:     dd,
		onEvent: cfg.OnEvent,
		alarms:  make(map[Kind]uint64),
	}, nil
}

// ObserveFeedback feeds one served estimate into both detectors. hasActual
// says whether actual is real ground truth — a genuine zero-row actual
// drives the q-error detector (QError clamps the truth to 1), while
// observations without feedback drive only the domain detector. The
// explicit bit exists because a bare actual==0 used to mean both "no
// feedback" and "empty result", and phantom zero actuals must never reach
// the detector.
func (m *Monitor) ObserveFeedback(q *sqlparse.Query, est, actual float64, hasActual bool) {
	m.mu.Lock()
	m.observed++
	m.mu.Unlock()
	if hasActual {
		if ev, fired := m.qerr.Observe(metrics.QError(actual, est)); fired {
			m.record(ev)
		}
	}
	if ev, fired := m.dom.ObserveQuery(q); fired {
		m.record(ev)
	}
}

func (m *Monitor) record(ev Event) {
	m.mu.Lock()
	m.alarms[ev.Kind]++
	m.alarmed = true
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

// Reset restores both detectors to full sensitivity; called after a
// retrained model passes the canary and publishes.
func (m *Monitor) Reset() {
	m.qerr.Reset()
	m.dom.Reset()
	m.clearAlarm()
}

// Rearm resets both detectors but widens the q-error threshold by factor;
// the response to a retrain whose canary failed.
func (m *Monitor) Rearm(factor float64) {
	m.qerr.Rearm(factor)
	m.dom.Reset()
	m.clearAlarm()
}

func (m *Monitor) clearAlarm() {
	m.mu.Lock()
	m.alarmed = false
	m.mu.Unlock()
}

// AlarmActive reports whether any detector has alarmed since the last
// Reset/Rearm. Wire it into serve.Config.CacheBypass so the estimate cache
// steps aside while the live model is under suspicion.
func (m *Monitor) AlarmActive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alarmed
}

// Counters returns the monitor's cumulative counters in a flat, /metrics
// friendly form.
func (m *Monitor) Counters() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]any{
		"drift_feedback_observed": m.observed,
		"drift_alarms_qerror":     m.alarms[KindQError],
		"drift_alarms_domain":     m.alarms[KindDomain],
		"drift_alarm_active":      m.alarmed,
	}
}

// Status returns the full detector state plus recent events, the payload
// behind /v1/drift.
func (m *Monitor) Status() map[string]any {
	m.mu.Lock()
	recent := append([]Event(nil), m.recent...)
	observed := m.observed
	qAlarms, dAlarms := m.alarms[KindQError], m.alarms[KindDomain]
	alarmed := m.alarmed
	m.mu.Unlock()
	return map[string]any{
		"observed":    observed,
		"alarmActive": alarmed,
		"alarms": map[string]uint64{
			string(KindQError): qAlarms,
			string(KindDomain): dAlarms,
		},
		"qerror": m.qerr.State(),
		"domain": m.dom.State(),
		"recent": recent,
	}
}
