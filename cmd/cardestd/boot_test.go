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

// servingHeap boots and arms a daemon at -rows 2000 -train 2000 and returns
// the live heap it holds once it could serve, next to what its table and its
// model account for.
func servingHeap(t *testing.T, flags ...string) (held, tableAndModel int64) {
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
	forest := b.db.Table("forest")
	tableAndModel = int64(forest.NumRows() * forest.NumCols() * 8)
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
	return held, tableAndModel + int64(kb*1024)
}

// TestServingHeapIsTableAndModel: what a daemon holds once it serves is its
// table and its model, whichever of -journal and -store is armed — not the
// 2 000 bound ASTs it trained on. Before boot was a function of its own, -journal's
// canary-refresh closure named the boot environment and kept all of it alive
// for the life of the process: with that capture put back this test reads
// 0.73 MiB held without -journal and 5.32 MiB with it (+4.8 MB, the training
// set; resident about twice that at GOGC=100). -store hid a second holder, the
// canary workload being the tail of the array whose head is the training set:
// 5.79 MiB when the lifecycle is handed env.Test itself. The model is its
// flat forest alone: while a GB model also kept the per-tree arenas it was fit
// in, this test read 0.71 MiB held against a 0.34 MiB budget, and 0.38 since.
func TestServingHeapIsTableAndModel(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow allocations are counted in the heap")
	}
	const slack, journalSlack = 192 << 10, 512 << 10
	// The canary queries are the lifecycle's to keep, at the ~2.4 KB of bound
	// AST a drawn query costs (-cache-entries' help does the same sum).
	const canary = 200 * 2400
	mib := func(n int64) string { return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20)) }

	bare, budget := servingHeap(t)
	t.Logf("no -journal: %s held, table + model %s", mib(bare), mib(budget))
	if bare > budget+slack {
		t.Errorf("a daemon without -journal holds %s, want at most table + model (%s) + %s", mib(bare), mib(budget), mib(slack))
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
		t.Logf("%s: %s held, table + model + canary %s", tc.name, mib(held), mib(budget))
		if held > budget+slack {
			t.Errorf("a %s daemon holds %s, want at most table + model + canary (%s) + %s", tc.name, mib(held), mib(budget), mib(slack))
		}
		if tc.base != 0 && held-tc.base > journalSlack {
			t.Errorf("%s costs %s of live heap over a daemon without it (%s → %s), want under %s",
				tc.name, mib(held-tc.base), mib(tc.base), mib(held), mib(journalSlack))
		}
	}
}

// TestCanaryRefresherNeedsALifecycle: a rotation refreshes the canary gate's
// workload, and without -store there is no gate. Such a daemon used to start
// a goroutine per rotation that returned on its first line (and whose closure
// was what kept the boot environment alive); now it arms no refresher and
// gives the journal no OnRotate. With -store the same traffic still replaces
// the canary workload.
func TestCanaryRefresherNeedsALifecycle(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			o := tinyOptions(t)
			o.journalDir = filepath.Join(t.TempDir(), "journal")
			o.journalSegSz = 1 // every flush seals a segment
			if withStore {
				o.storeDir = filepath.Join(t.TempDir(), "store")
				o.canaryN, o.canaryMedian, o.canaryP95 = 20, 1e18, 1e18
			}
			var out strings.Builder
			b, err := boot(o, &out)
			if err != nil {
				t.Fatal(err)
			}
			d, err := arm(b, o, &out)
			if err != nil {
				t.Fatal(err)
			}
			if armed := d.canary != nil; armed != withStore {
				t.Errorf("canary refresher armed = %v with store = %v", armed, withStore)
			}
			for i := 0; i < 8; i++ {
				body := fmt.Sprintf(`{"sql":"SELECT count(*) FROM forest WHERE A1 >= %d","actual":%d}`, i, 40+i)
				rec := httptest.NewRecorder()
				d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("POST %s: status %d: %s", body, rec.Code, rec.Body)
				}
			}
			if err := d.jnl.Sync(); err != nil {
				t.Error(err)
			}
			// close joins the journal's writer and then the refresher, so what
			// the rotation set off has been printed when it returns.
			d.close()
			if n := d.jnl.Stats().Rotations; n < 1 {
				t.Fatalf("%d rotations: the traffic did not seal a segment, so the test saw nothing", n)
			}
			if refreshed := strings.Contains(out.String(), "canary workload refreshed from traffic"); refreshed != withStore {
				t.Errorf("canary refreshed = %v with store = %v:\n%s", refreshed, withStore, out.String())
			}
		})
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
