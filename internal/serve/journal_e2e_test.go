package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"qfe/internal/clock"
	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/resilience/faultinject"
	"qfe/internal/store"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// This file is the acceptance test for the feedback-journal subsystem: real
// traffic with actuals served over a real HTTP listener lands in the
// journal, a torn-write crash hits mid-segment, recovery loses nothing that
// was acked, and the recovered journal drives both a deterministic replay
// report and a traffic-derived canary that gates a Lifecycle publish. A
// second test pins the shed-not-block contract with the journal wired into
// the serving feedback path.

// journalTestOptions: on a fake clock only the test advances, all flushing is
// driven by explicit Sync calls so the fault-injection op ordinals are
// deterministic.
func journalTestOptions(fsys store.FS) journal.Options {
	return journal.Options{SegmentBytes: 1 << 30, Retain: -1, FS: fsys, Clock: clock.NewFake(time.Unix(1_700_000_000, 0))}
}

// journalFeedback adapts serve feedback events into journal records exactly
// the way cmd/cardestd wires it.
func journalFeedback(jnl *journal.Journal) func(FeedbackEvent) {
	return func(ev FeedbackEvent) {
		jnl.Append(journal.Record{
			SQL:           ev.SQL,
			Model:         ev.Model,
			Generation:    ev.Generation,
			Estimate:      ev.Estimate,
			Actual:        ev.Actual,
			HasActual:     ev.HasActual,
			LatencyMicros: ev.Latency.Microseconds(),
		})
	}
}

// e2eTraffic is the test's traffic: 16 forest queries of at least one row,
// none of them in lifecycleEnv's training or canary split, each sent once with
// its true cardinality as the actual.
func e2eTraffic(tb testing.TB) workload.Set {
	tb.Helper()
	_, set := testEnv(tb)
	var traffic workload.Set
	for _, l := range set[700:] {
		if l.Card >= 1 && len(traffic) < 16 {
			traffic = append(traffic, l)
		}
	}
	if len(traffic) < 16 {
		tb.Fatalf("only %d non-empty queries to send", len(traffic))
	}
	return traffic
}

// postEstimate fires one estimate with an actual over a real TCP listener.
func postEstimate(t *testing.T, url string, l workload.Labeled) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"sql": l.Query.String(), "actual": l.Card})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("estimate %s over the listener: %v", l.Query, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate %s: status %d", l.Query, resp.StatusCode)
	}
}

func TestJournalFeedbackEndToEnd(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	// Fault plan: op 1 is MkdirAll, op 2 commits the first batch, op 3 —
	// the second batch's append — tears mid-write: a power loss mid-segment.
	fi := faultinject.NewFS(nil, faultinject.FSConfig{Seed: 3, Kind: faultinject.FSTornWrite, Op: 3})
	jnl, err := journal.Open(dir, journalTestOptions(fi))
	if err != nil {
		t.Fatal(err)
	}

	traffic := e2eTraffic(t)
	srv := newStubServer(t, constEst(8), func(cfg *Config) {
		cfg.Feedback = journalFeedback(jnl)
		cfg.DB, _ = testEnv(t) // the traffic is over the test forest
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, l := range traffic[:12] {
		postEstimate(t, ts.URL, l)
	}
	if err := jnl.Sync(); err != nil {
		t.Fatalf("Sync of the first batch: %v", err)
	}
	acked := jnl.Stats().Persisted
	if acked != 12 {
		t.Fatalf("first batch persisted %d records, want 12", acked)
	}
	for _, l := range traffic[12:] {
		postEstimate(t, ts.URL, l)
	}
	if err := jnl.Sync(); err == nil {
		t.Fatal("Sync across the torn write reported success")
	}
	jnl.Close() // the process "dies" with a torn tail mid-segment

	// Recovery on a healthy filesystem: zero acked records lost, nothing
	// torn resurrected.
	jnl2, err := journal.Open(dir, journalTestOptions(nil))
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer jnl2.Close()
	recs, err := jnl2.ReadSealed()
	if err != nil {
		t.Fatal(err)
	}
	bySQL := map[string]journal.Record{}
	for _, rec := range recs {
		bySQL[rec.SQL] = rec
	}
	sent := map[string]bool{}
	for i, l := range traffic {
		sql := l.Query.String()
		sent[sql] = true
		if i >= 12 {
			continue
		}
		rec, ok := bySQL[sql]
		if !ok {
			t.Fatalf("acked record %d lost in recovery (recovered %d total)", i, len(recs))
		}
		if !rec.HasActual || rec.Actual != float64(l.Card) || rec.Estimate != 8 || rec.Model == "" || rec.Fingerprint != "" {
			t.Fatalf("record %d recovered damaged: %+v", i, rec)
		}
	}
	for _, rec := range recs {
		if !sent[rec.SQL] {
			t.Fatalf("recovery resurrected a record that was never served: %+v", rec)
		}
	}

	// Deterministic replay report over the recovered traffic.
	db, _ := testEnv(t)
	repA := replay.Replay(constEst(8), recs, db)
	repB := replay.Replay(constEst(8), recs, db)
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("replay over recovered journal is not deterministic:\n%+v\n%+v", repA, repB)
	}
	if repA.Scored < 12 || repA.Unparsed != 0 {
		t.Fatalf("replay report %+v, want every recovered record scored", repA)
	}

	// The recovered traffic judges publishes at the lifecycle's door. The
	// first default has no live model to vouch for a traffic sample, so it is
	// judged on the held-out set; once it is live, candidates are judged on a
	// sample of the recovered records. Their actuals are true cardinalities,
	// so the sample scores a trained snapshot honestly: the good one clears
	// it, the one trained on inflated labels fails by orders of magnitude.
	db, heldOut, good, bad := lifecycleEnv(t)
	lc, err := NewLifecycle(LifecycleConfig{Registry: newChainRegistry(), Journal: jnl2, DB: db, Canary: looseCanary(heldOut)})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := lc.Publish(context.Background(), PublishSpec{Name: "good", Snapshot: snapshotBytes(t, good), MakeDefault: true})
	if err != nil || pub.Canary.Queries != len(heldOut) {
		t.Fatalf("first publish: %+v, %v; want it judged on the %d held-out queries", pub.Canary, err, len(heldOut))
	}
	sample := replay.TrafficCanary(recs, len(heldOut), db)
	if len(sample) < 12 {
		t.Fatalf("a sample of %d queries from %d recovered records, want at least the 12 acked", len(sample), len(recs))
	}
	pub, err = lc.Publish(context.Background(), PublishSpec{Name: "good", Snapshot: snapshotBytes(t, good), MakeDefault: true})
	if err != nil || !pub.Canary.Pass || pub.Canary.Queries != len(sample) {
		t.Fatalf("honest model on the traffic sample: %+v, %v; want a pass over its %d queries", pub.Canary, err, len(sample))
	}
	pub, err = lc.Publish(context.Background(), PublishSpec{Name: "bad", Snapshot: snapshotBytes(t, bad), MakeDefault: true})
	if !errors.Is(err, ErrCanaryRejected) || pub.Canary.Queries != len(sample) {
		t.Fatalf("broken model on the traffic sample: %+v (err %v), want a refusal over its %d queries", pub.Canary, err, len(sample))
	}
}

// TestDoorFallsBackToHeldOut: the lifecycle judges on the traffic sample only
// when the live model passes it and the journal can be read; otherwise it
// judges on the held-out set, and the verdict's reason says why.
func TestDoorFallsBackToHeldOut(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, heldOut, good, _ := lifecycleEnv(t)
	traffic := e2eTraffic(t)
	for _, tc := range []struct {
		name    string
		inflate int64 // the factor the journaled actuals are off by
		fault   faultinject.FSFaultKind
		reason  string
	}{
		{"live model fails the sample", 1_000_000, faultinject.FSNone, "the live model fails the traffic sample"},
		{"segment unreadable", 1, faultinject.FSReadError, "traffic unreadable (journal: read seg-00000001.qfej: " + faultinject.ErrReadFailed.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The first ReadFile is the door's: a fresh journal recovers nothing.
			fi := faultinject.NewFS(nil, faultinject.FSConfig{Kind: tc.fault, Op: 1})
			opts := journalTestOptions(fi)
			opts.SegmentBytes = 1 // every commit seals a segment the door can read
			jnl, err := journal.Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			for _, l := range traffic {
				jnl.Append(journal.Record{SQL: l.Query.String(), Actual: float64(l.Card * tc.inflate), HasActual: true})
			}
			if err := jnl.Sync(); err != nil {
				t.Fatal(err)
			}
			lc, err := NewLifecycle(LifecycleConfig{Registry: newChainRegistry(), Journal: jnl, DB: db, Canary: looseCanary(heldOut)})
			if err != nil {
				t.Fatal(err)
			}
			spec := PublishSpec{Name: "live", Snapshot: snapshotBytes(t, good), MakeDefault: true}
			if _, err := lc.Publish(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			pub, err := lc.Publish(context.Background(), spec)
			if err != nil || pub.Canary.Queries != len(heldOut) || !strings.Contains(pub.Canary.Reason, tc.reason) {
				t.Fatalf("second publish: %+v, %v; want it judged on the %d held-out queries, saying %q", pub.Canary, err, len(heldOut), tc.reason)
			}
		})
	}
}

// wedgeFS blocks every AppendFile until gate closes (signalling on entered),
// modeling a hung disk under the serving path.
type wedgeFS struct {
	store.FS
	entered chan struct{}
	gate    chan struct{}
}

func (w *wedgeFS) AppendFile(path string, data []byte) error {
	select {
	case w.entered <- struct{}{}:
	default:
	}
	<-w.gate
	return w.FS.AppendFile(path, data)
}

func TestJournalWedgedDiskShedsNotBlocks(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const queueCap = 1024 // the journal's staging bound
	fsys := &wedgeFS{FS: store.OSFS(), entered: make(chan struct{}, 16), gate: make(chan struct{})}
	opts := journalTestOptions(fsys)
	clk := opts.Clock.(*clock.Fake)
	jnl, err := journal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	released := false
	release := func() {
		if !released {
			released = true
			close(fsys.gate)
		}
	}
	defer func() { release(); jnl.Close() }()

	traffic := e2eTraffic(t)
	srv := newStubServer(t, constEst(8), func(cfg *Config) {
		cfg.Feedback = journalFeedback(jnl)
		cfg.DB, _ = testEnv(t) // the traffic is over the test forest
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The first request's record is the flush timer's to commit, which parks
	// the writer inside the wedged AppendFile; then staging fills up.
	postEstimate(t, ts.URL, traffic[0])
	clk.Advance(time.Minute)
	<-fsys.entered
	for i := 0; i < queueCap; i++ {
		if !jnl.Append(journal.Record{SQL: fmt.Sprintf("SELECT count(*) FROM t WHERE a >= %d", i)}) {
			t.Fatalf("append %d of %d into empty staging shed", i, queueCap)
		}
	}
	// Every further request must be served promptly — the journal sheds;
	// serving latency must not inherit the disk's.
	start := time.Now()
	for _, l := range traffic[1:9] {
		postEstimate(t, ts.URL, l)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("8 estimates over a wedged journal took %v; feedback must shed, not block", elapsed)
	}
	s := jnl.Stats()
	if s.Shed != 8 || s.Appended != queueCap+1 {
		t.Fatalf("stats = %+v, want the 8 events past a full staging queue shed", s)
	}
	release() // disk recovers; whatever was accepted drains without loss
	if err := jnl.Sync(); err != nil {
		t.Fatalf("Sync after the disk recovered: %v", err)
	}
	if got := jnl.Stats(); got.Persisted != s.Appended {
		t.Fatalf("persisted %d of %d accepted records after recovery", got.Persisted, s.Appended)
	}
}
