package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/resilience"
	"qfe/internal/serve"
	"qfe/internal/table"
	"qfe/internal/testutil"
)

// tinyOptions keeps boot training fast enough for a unit test. It goes
// through parseFlags, so every test also covers the command line.
func tinyOptions(t *testing.T) options {
	t.Helper()
	o, err := parseFlags(strings.Fields(
		"-smoke -rows 1500 -train 300 -entries 8 -timeout 200ms -max-inflight 16 -drain-timeout 5s"))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestRetiredFlagsRejected: the coalescing batcher is gone, and its two knobs
// with it; so is -cache-off, the second spelling of -cache-entries 0, and
// -fallback, since every model serves inside the one chain; and so are the
// drift thresholds and the retrain cooldown, whose defaults are now the only
// values, and the domain detector two of them tuned; and so is the probe
// interval, since a published model is judged once; and so is -retrain, with
// the loop it armed, since no feedback retrain healed query drift (ext10). A
// stale deployment script must fail at the command line, not silently keep a
// flag that does nothing.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-max-batch", "16"}, {"-batch-delay", "2ms"}, {"-cache-off"}, {"-fallback"},
		{"-drift-delta", "0.05"}, {"-drift-lambda", "25"}, {"-drift-min-samples", "50"},
		{"-drift-window", "200"}, {"-drift-ood-fraction", "0.25"}, {"-retrain-cooldown", "1m"},
		{"-probe-interval", "30s"}, {"-retrain"},
	} {
		fs := append([]string{"-smoke"}, args...)
		if _, err := parseFlags(fs); err == nil || !strings.Contains(err.Error(), "not defined: "+args[0]) {
			t.Errorf("parseFlags(%v): err = %v, want an unknown-flag error naming %s", fs, err, args[0])
		}
	}
}

// TestRunSmoke drives the daemon's built-in self-test: boot-train, serve on
// a random port, single + batched estimates, model listing, metrics scrape,
// clean shutdown.
// With -journal it also finds the five estimates in journal_appended.
func TestRunSmoke(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		var out strings.Builder
		if err := run(tinyOptions(t), &out); err != nil {
			t.Fatalf("smoke run failed: %v\noutput:\n%s", err, out.String())
		}
		for _, want := range []string{"single estimate", "3 results", "metrics ok", "memory ok", "clean shutdown"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("smoke output missing %q:\n%s", want, out.String())
			}
		}
		if strings.Contains(out.String(), "journal ok") {
			t.Errorf("smoke without -journal checked a journal:\n%s", out.String())
		}
	})
	t.Run("journal", func(t *testing.T) {
		o := tinyOptions(t)
		o.journalDir = t.TempDir()
		var out strings.Builder
		if err := run(o, &out); err != nil {
			t.Fatalf("smoke run failed: %v\noutput:\n%s", err, out.String())
		}
		for _, want := range []string{"metrics ok", "journal ok (5 appended", "clean shutdown"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("smoke output missing %q:\n%s", want, out.String())
			}
		}
	})
}

// TestRunSaveAndLoad round-trips a boot snapshot through -save and -load.
func TestRunSaveAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "boot.json")
	o := tinyOptions(t)
	o.save = path
	if err := run(o, io.Discard); err != nil {
		t.Fatalf("save run: %v", err)
	}

	o = tinyOptions(t)
	o.load = "m1=" + path + ", m2=" + path
	o.defName = "m2"
	var out strings.Builder
	if err := run(o, &out); err != nil {
		t.Fatalf("load run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "models default=m2") {
		t.Errorf("-default did not take effect:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	o := tinyOptions(t)
	o.workers = -3
	if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("negative workers: err = %v, want a -workers error", err)
	}
	o = tinyOptions(t)
	o.timeout = -5 * time.Millisecond
	if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "-timeout") {
		t.Errorf("-timeout -5ms: err = %v, want a -timeout error (it read as no deadline)", err)
	}
	for _, n := range []int{0, -3} {
		o = tinyOptions(t)
		o.maxInFly = n
		if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "-max-inflight") {
			t.Errorf("-max-inflight %d: err = %v, want a -max-inflight error (it read as 64)", n, err)
		}
	}

	// LR and NN are the harness's models, not the daemon's: the name is
	// refused with the flags — before a table is built (Rows 0 would be the
	// next error) — and not, as LR once was, after boot-training with "not
	// serializable".
	for _, model := range []string{"LR", "NN"} {
		o = tinyOptions(t)
		o.model, o.rows = model, 0
		var out bytes.Buffer
		if err := run(o, &out); err == nil || !strings.Contains(err.Error(), "-model") || !strings.Contains(err.Error(), "want GB)") {
			t.Errorf("-model %s: err = %v, want a -model error naming GB", model, err)
		}
		if strings.Contains(out.String(), "building forest environment") {
			t.Errorf("-model %s built the table before it was refused:\n%s", model, out.String())
		}
	}

	o = tinyOptions(t)
	o.load = "missing-equals-sign"
	if err := run(o, io.Discard); err == nil || !strings.Contains(err.Error(), "name=path") {
		t.Errorf("malformed -load: err = %v, want a name=path error", err)
	}

	o = tinyOptions(t)
	o.defName = "ghost"
	if err := run(o, io.Discard); err == nil {
		t.Error("-default with an unknown model accepted")
	}
}

// armedDaemon boots and arms a daemon of the test size.
func armedDaemon(t *testing.T) *daemon {
	t.Helper()
	o := tinyOptions(t)
	b, err := boot(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	d, err := arm(b, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	return d
}

// estimateOne POSTs one query to h and returns the stage that answered it and
// its estimate.
func estimateOne(t *testing.T, h http.Handler, sql string) (stage string, estimate float64) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(`{"sql":"`+sql+`"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", sql, rec.Code, rec.Body)
	}
	var resp struct {
		Estimate float64 `json:"estimate"`
		Stage    string  `json:"stage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Stage, resp.Estimate
}

// TestQFTRefusedWithTheFlags: complex is the one QFT the daemon trains, so
// any other -qft is refused in run beside -model — before the table is built
// (Rows 0 would be the next error), the journal opened or a snapshot loaded,
// and under -load as well, where the name was once never checked.
func TestQFTRefusedWithTheFlags(t *testing.T) {
	for _, load := range []string{"", "m=missing.json"} {
		for _, qft := range []string{"range", "conjunctive", "bogus"} {
			o := tinyOptions(t)
			o.qft, o.load, o.rows = qft, load, 0
			var out bytes.Buffer
			err := run(o, &out)
			if err == nil || !strings.Contains(err.Error(), "-qft") || !strings.Contains(err.Error(), "want complex)") {
				t.Errorf("-qft %s -load %q: err = %v, want a -qft error naming complex", qft, load, err)
			}
			if strings.Contains(out.String(), "building forest environment") {
				t.Errorf("-qft %s -load %q built the table before it was refused:\n%s", qft, load, out.String())
			}
		}
	}
}

// TestRefusedQueriesLeaveTheModelServing: a query the learned model does not
// encode — an OR across attributes — is answered further down the chain, and
// it is not a failure of the model: after six of them in a row, a conjunctive
// query is still the learned stage's.
func TestRefusedQueriesLeaveTheModelServing(t *testing.T) {
	const conj = "SELECT count(*) FROM forest WHERE A1 >= 2500 AND A2 <= 200"
	// Independence refuses these too: the row-count heuristic answers.
	refused := []string{
		"A1 >= 3 OR A2 <= 7", "A1 <= 2000 OR A3 >= 30", "A2 < 90 OR A4 > 500",
		"A3 <= 5 OR A1 >= 3000", "A4 = 0 OR A2 = 9", "A1 = 2500 OR A2 = 180",
	}
	t.Run("complex", func(t *testing.T) {
		h := armedDaemon(t).srv.Handler()
		if stage, _ := estimateOne(t, h, conj); stage != "learned" {
			t.Fatalf("%s before any refusal: stage %q, want learned", conj, stage)
		}
		for _, where := range refused {
			if stage, _ := estimateOne(t, h, "SELECT count(*) FROM forest WHERE "+where); stage != "row-count heuristic" {
				t.Errorf("%s: stage %q, want row-count heuristic", where, stage)
			}
		}
		if stage, _ := estimateOne(t, h, conj+" AND A3 >= 2"); stage != "learned" {
			t.Errorf("after %d refusals a query the model encodes got stage %q, want learned", len(refused), stage)
		}
	})
}

// TestDefaultQFTEncodesOR: -qft defaults to complex, which encodes an OR on
// one attribute itself, so a daemon booted with the default flags answers
// one from the learned stage. Under the earlier default, conjunctive, the
// model refused it and independence answered, as it did most mixed traffic.
func TestDefaultQFTEncodesOR(t *testing.T) {
	const or = "SELECT count(*) FROM forest WHERE A1 < 2029 OR A1 > 2579"
	h := armedDaemon(t).srv.Handler()
	if stage, _ := estimateOne(t, h, or); stage != "learned" {
		t.Errorf("%s under the default flags: stage %q, want learned", or, stage)
	}
}

// TestServedTrafficIsLearned is the stage census of the served traffic, in
// cmd/bench's four shapes (traffic_test.go, which BenchmarkServeProfile drives
// into default.pgo): daemons booted with the default flags at the test size
// answer held-out mixed queries in cmd/bench's shape — 8 attributes, 5 <>, 3
// branches, the generator's seed offset away from the boot's — every one from
// the learned stage: single-cold (each text once), single-hot (64 texts warmed
// and re-sent), batch-cold (the cold texts 64 to a POST) and, under -journal,
// feedback-hot (the hot texts carrying their true count, every answer
// journaled). The responses are the census: each names the learned stage and
// none is degraded, so no stage failed and independence answered nothing. With
// complex the one QFT served, independence answers no refusal there; what it
// still answers is a query no QFT encodes (an OR across attributes,
// TestRefusedQueriesLeaveTheModelServing).
func TestServedTrafficIsLearned(t *testing.T) {
	const hotRounds = 4
	coldKeys := 5 * benchBatch
	if testing.Short() {
		coldKeys = 2 * benchBatch
	}
	tr := heldOut(t, tinyOptions(t), coldKeys)
	for _, s := range shapes(coldKeys) {
		o := tinyOptions(t)
		if s.feedback {
			o.journalDir = t.TempDir()
		}
		b, err := boot(o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		d, err := arm(b, o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		h := d.srv.Handler()
		rounds := 1
		if s.hot {
			rounds += hotRounds
		}
		bodies := s.bodies(t, tr)
		var c census
		for range rounds {
			for _, body := range bodies {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
				if err := c.add(rec.Code, rec.Body.Bytes(), s.batch); err != nil {
					t.Fatalf("%s: POST %s: %v", s.name, body, err)
				}
			}
		}
		if d.jnl != nil {
			if st := d.jnl.Stats(); st.Appended != uint64(c.queries) {
				t.Errorf("%s: journal appended %d records (%d shed) for %d answers", s.name, st.Appended, st.Shed, c.queries)
			}
		}
		d.close()
		t.Logf("%s: %d queries over %d texts: stages %v, %d degraded",
			s.name, c.queries, s.keys, c.stages, c.degraded)
		if !c.learned() || c.queries != s.keys*rounds {
			t.Errorf("%s: stages %v, %d degraded, want every one of %d learned", s.name, c.stages, c.degraded, s.keys*rounds)
		}
	}
}

// TestDegradedAnswerIsStable: the same query answered by a fallback stage
// gets the same answer every time. Degraded answers are not cached, so each
// of the 20 POSTs recomputes it; the sampling stage drew each call's sample
// from a call counter and answered this query differently from call to call.
func TestDegradedAnswerIsStable(t *testing.T) {
	const or = "SELECT count(*) FROM forest WHERE A1 <= 2500 OR A2 >= 200"
	h := armedDaemon(t).srv.Handler()
	stage, first := estimateOne(t, h, or)
	if stage == "learned" {
		t.Fatalf("the model answered %s, an OR across attributes, itself: nothing degraded", or)
	}
	for i := 1; i < 20; i++ {
		if s, v := estimateOne(t, h, or); s != stage || math.Float64bits(v) != math.Float64bits(first) {
			t.Fatalf("POST %d: stage %q estimate %v, the first was stage %q estimate %v", i+1, s, v, stage, first)
		}
	}
}

// TestRunStoreRecovery drives the crash-safe lifecycle across daemon
// restarts: the first run trains and persists a generation, the second
// recovers it from disk instead of retraining, and after at-rest corruption
// the third rejects the damaged generation and falls back to training a
// fresh one.
func TestRunStoreRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	withStore := func() options {
		o := tinyOptions(t)
		o.storeDir = dir
		o.canaryN = 60
		// Generous ceilings: this test exercises persistence and recovery,
		// not the tiny boot model's accuracy.
		o.canaryMedian = 1e6
		o.canaryP95 = 1e9
		return o
	}

	var out strings.Builder
	if err := run(withStore(), &out); err != nil {
		t.Fatalf("first run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "persisted as generation 1") {
		t.Fatalf("first run did not persist generation 1:\n%s", out.String())
	}

	out.Reset()
	if err := run(withStore(), &out); err != nil {
		t.Fatalf("second run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "recovered boot") ||
		strings.Contains(out.String(), "training boot model") {
		t.Fatalf("second run did not recover from the store:\n%s", out.String())
	}

	// Bit-rot the persisted snapshot: the third run must quarantine it at
	// open, report the corruption, and retrain rather than serve bad bytes.
	snapPath := filepath.Join(dir, "gen-00000001", "snapshot.qfes")
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run(withStore(), &out); err != nil {
		t.Fatalf("post-corruption run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"1 corrupt rejected", "no recoverable generation", "persisted as generation 2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("post-corruption run missing %q:\n%s", want, out.String())
		}
	}
}

// postOK POSTs body to /v1/estimate and fails the test unless it is a 200.
func postOK(t *testing.T, h http.Handler, body string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", body, rec.Code, rec.Body)
	}
}

// TestRetrainLoopEndpointsAreGone: a daemon with everything that remains
// armed — store and journal — serves no drift page and no drift or retrain
// counters, and its journal page reports the journal, not the actuals index
// the retrainer read ("indexed"). The loop went when ext10 measured that no
// feedback retrain heals query drift.
func TestRetrainLoopEndpointsAreGone(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	o := tinyOptions(t)
	o.storeDir = filepath.Join(t.TempDir(), "store")
	o.journalDir = filepath.Join(t.TempDir(), "journal")
	o.canaryN, o.canaryMedian, o.canaryP95 = 60, 1e6, 1e9
	b, err := boot(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	d, err := arm(b, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	h := d.srv.Handler()
	postOK(t, h, `{"sql":"SELECT count(*) FROM forest WHERE A1 >= 3","actual":10}`)
	if err := d.jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, map[string]any) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body map[string]any
		json.Unmarshal(rec.Body.Bytes(), &body) //nolint:errcheck // a 404 body is not JSON
		return rec.Code, body
	}
	if code, _ := get("/v1/drift"); code != http.StatusNotFound {
		t.Errorf("GET /v1/drift: status %d, want 404", code)
	}
	code, page := get("/v1/journal")
	if code != http.StatusOK || page["stats"] == nil || page["segments"] == nil || page["dir"] == nil {
		t.Fatalf("GET /v1/journal: status %d, body %v; want 200 with dir, stats and segments", code, page)
	}
	if _, ok := page["indexed"]; ok {
		t.Errorf("GET /v1/journal reports indexed = %v: an actuals index is being kept again", page["indexed"])
	}
	_, metrics := get("/metrics")
	if metrics["journal_appended"] == nil {
		t.Fatalf("/metrics lacks journal_appended: %v", metrics)
	}
	for key := range metrics {
		if strings.HasPrefix(key, "drift_") || strings.HasPrefix(key, "retrain_") {
			t.Errorf("/metrics reports %s", key)
		}
	}
}

// TestArmFailureStopsWhatItStarted: a step of arm that fails is the daemon's
// error, not a nil dereference in the cleanup, and the journal writer an
// earlier step started is joined before arm returns. The two cases fail at
// the first step and at the last with everything before it running.
func TestArmFailureStopsWhatItStarted(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	armed := func(t *testing.T) options {
		o := tinyOptions(t)
		o.storeDir = filepath.Join(t.TempDir(), "store")
		o.journalDir = filepath.Join(t.TempDir(), "journal")
		o.canaryN, o.canaryMedian, o.canaryP95 = 60, 1e6, 1e9
		return o
	}
	t.Run("journal directory is a file", func(t *testing.T) {
		o := tinyOptions(t)
		o.journalDir = filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(o.journalDir, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(o, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "open feedback journal") {
			t.Fatalf("run over a journal path that is a file: err = %v, want one naming the feedback journal", err)
		}
	})
	t.Run("server refuses its config", func(t *testing.T) {
		o := armed(t)
		b, err := boot(o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		b.reg = nil // serve.New is arm's last step that can fail
		d, err := arm(b, o, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "Registry") {
			t.Fatalf("arm without a registry: err = %v, want serve.New's", err)
		}
		if d != nil {
			t.Errorf("arm returned a daemon beside its error")
		}
	})
}

// TestJournaledFingerprint: the journal writes what was served and no class
// key — the request path never fingerprints (the estimate cache is keyed on
// the query text) and neither do the feedback hook or the journal writer —
// and replay.Traffic names the records' classes from their SQL: on a miss, a
// hit, inside a client batch that respells a served query, and with the
// cache off.
func TestJournaledFingerprint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const sqlA = "SELECT count(*) FROM t WHERE a >= 1 AND b < 7"
	const sqlA2 = "SELECT count(*) FROM t WHERE b < 7 AND a >= 1" // sqlA's class, another text
	const sqlB = "SELECT count(*) FROM t WHERE b <> 3"
	for _, tc := range []struct {
		name    string
		entries int
		hits    int64
	}{{"cache on", 64, 2}, {"cache off", 0, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jnl, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			reg := serve.NewRegistry()
			if _, err := reg.Register("const", constChain(5), serve.ModelInfo{}); err != nil {
				t.Fatal(err)
			}
			srv, err := serve.New(serve.Config{
				Registry: reg,
				DB:       tDB(),
				Cache:    serve.CacheConfig{Entries: tc.entries},
				Feedback: feedbackHook(jnl),
			})
			if err != nil {
				t.Fatal(err)
			}
			// A miss, a hit on the same query, then a client batch holding a
			// hit, a miss and a miss on a respelling of the first query.
			bodies := []string{
				`{"sql":"` + sqlA + `","actual":4}`,
				`{"sql":"` + sqlA + `"}`,
				`{"queries":[{"sql":"` + sqlA + `"},{"sql":"` + sqlB + `"},{"sql":"` + sqlA2 + `"}]}`,
			}
			for _, body := range bodies {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("POST %s: status %d: %s", body, rec.Code, rec.Body)
				}
			}
			if got := srv.Metrics().Snapshot()["cache_hits"]; got != tc.hits {
				t.Fatalf("cache_hits = %v, want %d: the requests did not take the paths under test", got, tc.hits)
			}
			if err := jnl.Sync(); err != nil {
				t.Fatal(err)
			}
			recs, _, err := journal.Read(nil, dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 5 {
				t.Fatalf("journal holds %d records, want 5", len(recs))
			}
			for _, r := range recs {
				if r.Fingerprint != "" {
					t.Errorf("%q journaled under fingerprint %q, want none", r.SQL, r.Fingerprint)
				}
			}
			want := replay.TrafficStats{Records: 5, DistinctTexts: 3, DistinctFingerprints: 2, SemanticOnly: 1}
			if got := replay.Traffic(recs); got != want {
				t.Errorf("Traffic over the journal = %+v, want %+v", got, want)
			}
		})
	}
}

// TestFeedbackActualBeyondInt64: 2^63 is a finite number, so the handler takes
// it and answers 200, and the journal keeps it as the client sent it, beside
// the earlier 7 for the same query, never as math.MinInt64.
func TestFeedbackActualBeyondInt64(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const sql = "SELECT count(*) FROM t WHERE a >= 1"
	dir := t.TempDir()
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	reg := serve.NewRegistry()
	if _, err := reg.Register("const", constChain(5), serve.ModelInfo{}); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Registry: reg, DB: tDB(), Feedback: feedbackHook(jnl)})
	if err != nil {
		t.Fatal(err)
	}
	for _, actual := range []string{"7", "9223372036854775808"} {
		body := `{"sql":"` + sql + `","actual":` + actual + `}`
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", body, rec.Code, rec.Body)
		}
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := journal.Read(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Actual != 7 || recs[1].Actual != 1<<63 || !recs[1].HasActual {
		t.Errorf("the journal holds %+v, want the actuals 7 and 2^63 in order", recs)
	}
}

// tDB holds the table the constant-model tests' queries name: t, with
// columns a and b.
func tDB() *table.DB {
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("a", []int64{0, 1}))
	t.MustAddColumn(table.NewColumn("b", []int64{0, 1}))
	db := table.NewDB()
	db.MustAdd(t)
	return db
}

// constServer is a serve.Server over one constant model.
func constServer(t *testing.T) *serve.Server {
	t.Helper()
	reg := serve.NewRegistry()
	if _, err := reg.Register("const", constChain(5), serve.ModelInfo{}); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Registry: reg, DB: tDB()})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// lineWriter hands each Write (the daemon prints one line per Fprintf) to a
// channel, so a test can wait for a line instead of polling a buffer.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}

// TestServeAnnouncesBoundAddress: with -addr :0 the "listening on" line names
// the port the kernel chose, and by the time it is printed the socket
// accepts — a script can read the line and connect.
func TestServeAnnouncesBoundAddress(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	o := tinyOptions(t)
	o.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make(lineWriter, 8) // every line the daemon prints here fits: the test reads as it goes
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, constServer(t), o, out) }()

	var line string
	select {
	case line = <-out:
	case err := <-done:
		t.Fatalf("serveUntil returned before announcing: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "cardestd listening on ")
	if !ok || strings.HasSuffix(addr, ":0") {
		t.Fatalf("first line %q, want the bound address", line)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("the announced address does not answer: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz on the announced address: status %d", resp.StatusCode)
	}
	http.DefaultClient.CloseIdleConnections()

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(out)
	var rest []string
	for l := range out {
		rest = append(rest, l)
	}
	if got := strings.Join(rest, ""); !strings.Contains(got, "drained cleanly") {
		t.Errorf("after cancel the daemon printed %q, want a clean drain", got)
	}
}

// TestStalledHeadersAreClosed: a client that opens a connection and never
// finishes its headers is disconnected once readHeaderTimeout has passed,
// and the daemon still drains cleanly with no goroutine of its own left.
func TestStalledHeadersAreClosed(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	o := tinyOptions(t)
	o.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make(lineWriter, 8)
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, constServer(t), o, out) }()
	var line string
	select {
	case line = <-out:
	case err := <-done:
		t.Fatalf("serveUntil returned before announcing: %v", err)
	}
	addr, _ := strings.CutPrefix(strings.TrimSpace(line), "cardestd listening on ")

	start := time.Now() // before the daemon can start the header clock
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/estimate HTTP/1.1\r\nHost: cardestd\r\nContent-Le"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, conn) // returns when the daemon closes the connection
	var ne net.Error
	if elapsed := time.Since(start); errors.As(err, &ne) && ne.Timeout() || elapsed < readHeaderTimeout {
		t.Fatalf("stalled headers: connection ended after %v (%d bytes, %v), want a close at the %v header timeout",
			elapsed, n, err, readHeaderTimeout)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeBindFailureAnnouncesNothing: an address that cannot be bound is an
// error and no "listening on" line — the old code printed the line first and
// failed after it.
func TestServeBindFailureAnnouncesNothing(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	o := tinyOptions(t)
	o.addr = taken.Addr().String()
	var out strings.Builder
	if err := serveUntil(context.Background(), constServer(t), o, &out); err == nil {
		t.Fatal("binding an address in use succeeded")
	}
	if out.Len() != 0 {
		t.Errorf("a failed bind printed %q, want nothing", out.String())
	}
}

// constChain is a model that answers v for every query, behind the one-stage
// resilience chain the registry serves it through.
func constChain(v float64) *resilience.Resilient {
	return resilience.NewResilient(resilience.Config{}, resilience.Stage{Est: resilience.Constant{Value: v}})
}
