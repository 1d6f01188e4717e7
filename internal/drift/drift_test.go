package drift

import (
	"testing"

	"qfe/internal/testutil"
)

func qerrCfg() QErrorConfig {
	return QErrorConfig{Delta: 0.05, Lambda: 5, MinSamples: 10, MaxLogQ: 20}
}

// newMonitor returns a monitor over cfg whose alarms land in *events.
func newMonitor(t *testing.T, cfg QErrorConfig, events *[]Event) *Monitor {
	t.Helper()
	m, err := NewMonitor(MonitorConfig{QError: cfg, OnEvent: func(ev Event) { *events = append(*events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// feedUntilAlarm drives m with good-then-bad q-errors and returns how many
// bad observations it took to alarm (0 = never alarmed within budget).
func feedUntilAlarm(t *testing.T, m *Monitor, events *[]Event, good, maxBad int) (Event, int) {
	t.Helper()
	before := len(*events)
	for i := 0; i < good; i++ {
		if m.ObserveFeedback(1, 1, true); len(*events) != before {
			t.Fatalf("alarm after %d healthy observations: %+v", i+1, (*events)[before])
		}
	}
	for i := 1; i <= maxBad; i++ {
		if m.ObserveFeedback(1, 1024, true); len(*events) != before {
			return (*events)[before], i
		}
	}
	return Event{}, 0
}

func TestQErrorDetectorAlarmsOnDrift(t *testing.T) {
	var events []Event
	m := newMonitor(t, qerrCfg(), &events)
	ev, bad := feedUntilAlarm(t, m, &events, 15, 50)
	if bad == 0 {
		t.Fatal("sustained 1024x q-errors never tripped the detector")
	}
	if ev.Kind != KindQError {
		t.Errorf("event kind = %q, want %q", ev.Kind, KindQError)
	}
	if ev.Samples < 10 {
		t.Errorf("alarm after %d samples, below MinSamples", ev.Samples)
	}
	if ev.Stat <= ev.Threshold {
		t.Errorf("alarm stat %v <= threshold %v", ev.Stat, ev.Threshold)
	}
	// Alarming auto-resets the statistic so one episode yields one event.
	if st := m.Status()["qerror"].(map[string]any); st["samples"] != 0 {
		t.Errorf("post-alarm samples = %v, want 0 (auto-reset)", st["samples"])
	}
}

func TestQErrorDetectorRespectsMinSamples(t *testing.T) {
	cfg := qerrCfg()
	cfg.MinSamples = 50
	var events []Event
	m := newMonitor(t, cfg, &events)
	for i := 0; i < 49; i++ {
		if m.ObserveFeedback(1, 1e6, true); len(events) != 0 {
			t.Fatalf("alarm at observation %d, before MinSamples=50: %+v", i+1, events[0])
		}
	}
}

func TestQErrorRearmWidensThreshold(t *testing.T) {
	var freshEvents, rearmedEvents []Event
	fresh := newMonitor(t, qerrCfg(), &freshEvents)
	rearmed := newMonitor(t, qerrCfg(), &rearmedEvents)
	rearmed.Rearm(4)

	_, freshBad := feedUntilAlarm(t, fresh, &freshEvents, 15, 50)
	_, rearmedBad := feedUntilAlarm(t, rearmed, &rearmedEvents, 15, 50)
	if freshBad == 0 || rearmedBad == 0 {
		t.Fatalf("detectors never alarmed (fresh %d, rearmed %d)", freshBad, rearmedBad)
	}
	if rearmedBad <= freshBad {
		t.Errorf("rearmed detector alarmed after %d bad samples, fresh after %d; widening must slow the alarm", rearmedBad, freshBad)
	}

	// Reset restores full sensitivity.
	rearmed.Reset()
	_, resetBad := feedUntilAlarm(t, rearmed, &rearmedEvents, 15, 50)
	if resetBad != freshBad {
		t.Errorf("reset detector alarmed after %d bad samples, fresh after %d; Reset must restore the original threshold", resetBad, freshBad)
	}
}

func TestMonitorForwardsAlarmsAndCounts(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var events []Event
	mon := newMonitor(t, QErrorConfig{Delta: 0.05, Lambda: 2, MinSamples: 5, MaxLogQ: 20}, &events)
	for i := 0; i < 6; i++ {
		mon.ObserveFeedback(100, 100, true) // q-error 1: healthy
	}
	for i := 0; i < 10 && len(events) == 0; i++ {
		mon.ObserveFeedback(1, 1e6, true) // q-error 1e6: drifted
	}
	if len(events) == 0 {
		t.Fatal("monitor never forwarded a q-error alarm")
	}
	if events[0].Kind != KindQError {
		t.Errorf("forwarded event kind = %q, want %q", events[0].Kind, KindQError)
	}

	c := mon.Counters()
	if c["drift_alarms_qerror"].(uint64) == 0 {
		t.Error("drift_alarms_qerror counter is 0 after an alarm")
	}
	if c["drift_feedback_observed"].(uint64) < 7 {
		t.Errorf("drift_feedback_observed = %v, want >= 7", c["drift_feedback_observed"])
	}

	st := mon.Status()
	if recent := st["recent"].([]Event); len(recent) == 0 {
		t.Error("Status reports no recent events after an alarm")
	}

	// Unlabeled feedback is counted and never reaches the detector.
	before := mon.Counters()
	for i := 0; i < 20; i++ {
		mon.ObserveFeedback(1, 0, false)
	}
	after := mon.Counters()
	if after["drift_alarms_qerror"] != before["drift_alarms_qerror"] {
		t.Errorf("unlabeled feedback moved the q-error alarm counter %v -> %v", before["drift_alarms_qerror"], after["drift_alarms_qerror"])
	}
	if got := after["drift_feedback_observed"].(uint64) - before["drift_feedback_observed"].(uint64); got != 20 {
		t.Errorf("20 unlabeled observations moved drift_feedback_observed by %d", got)
	}
	if n := mon.Status()["qerror"].(map[string]any)["samples"]; n != 0 {
		t.Errorf("the detector consumed %v unlabeled observations, want 0", n)
	}
	if len(after) != 2 {
		t.Errorf("counters %v, want drift_feedback_observed and drift_alarms_qerror alone", after)
	}

	mon.Rearm(2)
	mon.Reset()
}

func TestMonitorRefusesBadConfig(t *testing.T) {
	for _, cfg := range []QErrorConfig{
		{Delta: -1, Lambda: 1, MinSamples: 1, MaxLogQ: 1},
		{Delta: 0, Lambda: 0, MinSamples: 1, MaxLogQ: 1},
		{Delta: 0, Lambda: 1, MinSamples: 0, MaxLogQ: 1},
		{Delta: 0, Lambda: 1, MinSamples: 1, MaxLogQ: 0},
	} {
		if _, err := NewMonitor(MonitorConfig{QError: cfg}); err == nil {
			t.Errorf("NewMonitor(%+v) accepted", cfg)
		}
	}
}
