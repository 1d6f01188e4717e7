package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"qfe/internal/resilience/faultinject"
	"qfe/internal/serve"
	"qfe/internal/store"
	"qfe/internal/testutil"
)

// liveHeap is the heap that survives two collections: the first moves what
// the sync.Pools cache (the JSON encoder's snapshot-sized buffers, after a
// boot) to their victim caches, the second drops it.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// statsPerColumn is what a column keeps once its rows are dropped: the
// 100-bucket int64 histogram (800 B) and the statistics record around it.
const statsPerColumn = 1 << 10

// servingHeap boots and arms a daemon at -rows 2000 -train 2000 and returns
// the live heap it holds once it could serve, next to what its columns'
// statistics and its model account for.
func servingHeap(t *testing.T, flags ...string) (held, statsAndModel int64) {
	t.Helper()
	o, err := parseFlags(append(strings.Fields("-qft complex -rows 2000 -train 2000"), flags...))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	before := liveHeap()
	b, err := boot(o, &out)
	if err != nil {
		t.Fatalf("boot: %v\n%s", err, out.String())
	}
	statsAndModel = int64(b.db.Table("forest").NumCols() * statsPerColumn)
	d, err := arm(b, o, &out)
	if err != nil {
		t.Fatalf("arm: %v\n%s", err, out.String())
	}
	defer d.close()
	held = liveHeap() - before
	runtime.KeepAlive(d)

	m := regexp.MustCompile(`model size ([0-9.]+) kB`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("the boot log does not state the model's size:\n%s", out.String())
	}
	kb, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return held, statsAndModel + int64(kb*1024)
}

// TestServingHeapIsTableAndModel: what a daemon holds once it serves is its
// table, which is its columns' statistics, and its model, whichever of
// -journal and -store is armed — not its rows, and not the 2 000 bound ASTs
// it trained on. Boot
// drops the rows once its queries are labelled (table.DB.DropRows): with
// the rows kept this test reads 0.39 MiB held without -journal against a
// 0.20 MiB bound (the 2 000 x 16 table is 0.24 MiB), and 0.14 MiB since.
// Before boot was a function of its own, -journal's canary-refresh closure
// named the boot environment and kept all of it alive for the life of the
// process: with that capture put back this test read 0.73 MiB held without
// -journal and 5.32 MiB with it (+4.8 MB, the training set; resident about
// twice that at GOGC=100). -store hid a second holder, the canary workload
// being the tail of the array whose head is the training set: 5.79 MiB when
// the lifecycle is handed env.Test itself. The model is its flat forest
// alone: while a GB model also kept the per-tree arenas it was fit in, this
// test read 0.71 MiB held.
func TestServingHeapIsTableAndModel(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow allocations are counted in the heap")
	}
	const slack, journalSlack = 96 << 10, 512 << 10
	// The canary queries are the lifecycle's to keep, at the ~2.4 KB of bound
	// AST a drawn query costs (-cache-entries' help does the same sum).
	const canary = 200 * 2400
	mib := func(n int64) string { return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20)) }

	bare, budget := servingHeap(t)
	t.Logf("no -journal: %s held, stats + model %s", mib(bare), mib(budget))
	if bare > budget+slack {
		t.Errorf("a daemon without -journal holds %s, want at most stats + model (%s) + %s: are the rows back?", mib(bare), mib(budget), mib(slack))
	}
	for _, tc := range []struct {
		name   string
		flags  []string
		base   int64 // the no-journal heap the case is held to, 0 for none
		canary int64
	}{
		{"-journal", []string{"-journal", filepath.Join(t.TempDir(), "journal")}, bare, 0},
		{"-store", []string{"-canary", "200", "-store", filepath.Join(t.TempDir(), "store")}, 0, canary},
		{"-store -journal", []string{"-canary", "200", "-store", filepath.Join(t.TempDir(), "store"), "-journal", filepath.Join(t.TempDir(), "journal")}, 0, canary},
	} {
		held, budget := servingHeap(t, tc.flags...)
		budget += tc.canary
		t.Logf("%s: %s held, stats + model + canary %s", tc.name, mib(held), mib(budget))
		if held > budget+slack {
			t.Errorf("a %s daemon holds %s, want at most stats + model + canary (%s) + %s", tc.name, mib(held), mib(budget), mib(slack))
		}
		if tc.base != 0 && held-tc.base > journalSlack {
			t.Errorf("%s costs %s of live heap over a daemon without it (%s → %s), want under %s",
				tc.name, mib(held-tc.base), mib(tc.base), mib(held), mib(journalSlack))
		}
	}
}

// storeJournalDaemon boots and arms a -store -journal daemon of the test size
// under root, whose boot model is saved as root/boot.json for
// POST /v1/models/load, with ceilings every model clears.
func storeJournalDaemon(t *testing.T, root string, tune func(*options)) *daemon {
	t.Helper()
	o := tinyOptions(t)
	o.storeDir, o.modelRoot, o.save = filepath.Join(root, "store"), root, filepath.Join(root, "boot.json")
	o.journalDir = filepath.Join(root, "journal")
	o.canaryN, o.canaryMedian, o.canaryP95 = 60, 1e18, 1e18
	if tune != nil {
		tune(&o)
	}
	b, err := boot(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	d, err := arm(b, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// serveLabeled sends the 8 distinct labeled queries of the door tests, then
// waits for the journal to commit them.
func serveLabeled(t *testing.T, d *daemon) {
	t.Helper()
	for i := 0; i < 8; i++ {
		postOK(t, d.srv.Handler(), fmt.Sprintf(`{"sql":"SELECT count(*) FROM forest WHERE A1 >= %d","actual":%d}`, i, 40+i))
	}
	if err := d.jnl.Sync(); err != nil {
		t.Fatal(err)
	}
}

// loadBoot POSTs root/boot.json to /v1/models/load as the default and returns
// the canary run that admitted it.
func loadBoot(t *testing.T, d *daemon) serve.CanaryResult {
	t.Helper()
	rec := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/load",
		strings.NewReader(`{"name":"boot","path":"boot.json","default":true}`)))
	var pub serve.Publication
	if err := json.Unmarshal(rec.Body.Bytes(), &pub); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("POST /v1/models/load: %d %s (%v)", rec.Code, rec.Body, err)
	}
	return pub.Canary
}

// TestJournalIsReadOnlyAtTheDoor: a -store -journal daemon whose every flush
// seals a segment reads no segment while it serves labeled traffic, and reads
// the sealed ones once when POST /v1/models/load brings a model to the
// lifecycle's door, which judges it on their 8 distinct queries. The daemon
// used to re-derive its canary on every rotation, reading back every retained
// segment each time for a workload nothing used until the next load.
func TestJournalIsReadOnlyAtTheDoor(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	fi := faultinject.NewFS(nil, faultinject.FSConfig{Kind: faultinject.FSNone})
	d := storeJournalDaemon(t, t.TempDir(), func(o *options) { o.journalSegSz, o.journalFS = 1, fi })
	defer d.close()
	for round := 0; round < 4; round++ {
		serveLabeled(t, d)
	}
	s := d.jnl.Stats()
	if s.Rotations < 4 {
		t.Fatalf("%d rotations: the traffic did not seal a segment per commit, so the test saw nothing", s.Rotations)
	}
	if n := fi.Reads(); n != 0 {
		t.Fatalf("%d segment reads across %d rotations with no model at the door, want 0", n, s.Rotations)
	}
	if canary := loadBoot(t, d); canary.Queries != 8 {
		t.Errorf("the load was judged on %d queries, want the traffic's 8", canary.Queries)
	}
	if n := fi.Reads(); n != s.SealedSegments {
		t.Errorf("%d segment reads for one load, want one pass over the %d sealed segments", n, s.SealedSegments)
	}
}

// TestRestartJudgesOnRecoveredTraffic: a restarted daemon judges its first
// load on the traffic its journal recovered — over the 8 distinct labeled
// queries served before the restart, not the 60 held-out ones. It used to
// keep the held-out set until its own first rotation.
func TestRestartJudgesOnRecoveredTraffic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	root := t.TempDir()
	first := storeJournalDaemon(t, root, nil)
	serveLabeled(t, first)
	serveLabeled(t, first) // repeats: the canary keeps one of each
	first.close()

	d := storeJournalDaemon(t, root, nil)
	defer d.close()
	if canary := loadBoot(t, d); canary.Queries != 8 {
		t.Errorf("the restarted daemon's first load was judged on %d queries, want the recovered traffic's 8", canary.Queries)
	}
}

// TestBootVerdictsAreCounted: the lifecycle judges models at boot, before the
// server exists, and /metrics counts those verdicts too. Here the store holds
// a generation whose bytes decode to no model: recovery quarantines it, the
// boot model is trained and admitted by the canary. The server used to bind
// its own counters only when it was built, so this daemon's /v1/models showed
// the boot model's passing canary while /metrics read canary_pass_total 0 and
// quarantined_total 0.
func TestBootVerdictsAreCounted(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	o := tinyOptions(t)
	o.storeDir = filepath.Join(t.TempDir(), "store")
	o.canaryN, o.canaryMedian, o.canaryP95 = 60, 1e6, 1e9
	st, err := store.Open(o.storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("boot", "", []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	b, err := boot(o, &out)
	if err != nil {
		t.Fatalf("boot: %v\n%s", err, out.String())
	}
	d, err := arm(b, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	rec := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{"canary_pass_total": 1, "canary_fail_total": 0, "quarantined_total": 1, "store_generation": 2} {
		if m[key] != want {
			t.Errorf("/metrics %s = %v, want %v\nboot log:\n%s", key, m[key], want, out.String())
		}
	}
}

// TestLoadUnderStorePublishes: under -store a -load snapshot is published
// like any other model, so the daemon's rule that every publish clears the
// canary holds at boot too. It used to be registered directly: no canary
// verdict, no store generation, and nothing lifecycle-managed for a rollback
// to act on. A snapshot the canary refuses fails the boot with its reason.
func TestLoadUnderStorePublishes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	snapDir := t.TempDir()
	snap := filepath.Join(snapDir, "boot.json")
	o := tinyOptions(t)
	o.save = snap
	if _, err := boot(o, io.Discard); err != nil {
		t.Fatal(err)
	}

	withStore := func() options {
		o := tinyOptions(t)
		o.storeDir, o.modelRoot = filepath.Join(t.TempDir(), "store"), snapDir
		o.canaryN, o.canaryMedian, o.canaryP95 = 60, 1e6, 1e9
		o.load = "m=" + snap
		return o
	}
	o = withStore()
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
	do := func(method, path, body string) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	models := func() []serve.ModelInfo {
		t.Helper()
		code, body := do(http.MethodGet, "/v1/models", "")
		var v struct{ Models []serve.ModelInfo }
		if err := json.Unmarshal([]byte(body), &v); code != http.StatusOK || err != nil {
			t.Fatalf("GET /v1/models: %d %s (%v)", code, body, err)
		}
		return v.Models
	}
	if ms := models(); len(ms) != 1 || ms[0].Name != "m" || ms[0].Canary == nil || !ms[0].Canary.Pass || ms[0].StoreGeneration != 1 {
		t.Fatalf("/v1/models lists %+v, want m admitted by the canary as store generation 1", ms)
	}
	// A second publish of m, then a rollback: back to the -load generation.
	if code, body := do(http.MethodPost, "/v1/models/load", `{"name":"m","path":"boot.json","default":true}`); code != http.StatusOK {
		t.Fatalf("POST /v1/models/load: %d %s", code, body)
	}
	if code, body := do(http.MethodPost, "/v1/models/rollback", ""); code != http.StatusOK {
		t.Fatalf("POST /v1/models/rollback: %d %s", code, body)
	}
	if ms := models(); len(ms) != 1 || ms[0].StoreGeneration != 1 {
		t.Errorf("after the rollback /v1/models lists %+v, want m at store generation 1", ms)
	}

	o = withStore()
	o.canaryMedian = 1 // no model's median q-error is below 1
	if _, err := boot(o, io.Discard); !errors.Is(err, serve.ErrCanaryRejected) || !strings.Contains(err.Error(), "median") {
		t.Errorf("-load of a snapshot the canary refuses: err = %v, want the canary's rejection and its reason", err)
	}
}
