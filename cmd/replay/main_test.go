package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/journal"
	"qfe/internal/ml/gb"
	"qfe/internal/replay"
	"qfe/internal/serve"
	"qfe/internal/sqlparse"
	"qfe/internal/store"
	"qfe/internal/table"
	"qfe/internal/workload"
)

const (
	testRows = 1500
	testSeed = 3
)

// testWorkload rebuilds the forest table replay derives from -rows/-seed and
// a labeled workload over it: the first 100 queries train, the rest are
// traffic.
func testWorkload(t *testing.T) (*table.DB, workload.Set) {
	t.Helper()
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: testRows, QuantAttrs: 12, BinaryAttrs: 4, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(forest)
	set, err := workload.Conjunctive(forest, workload.ConjConfig{Count: 140, MaxAttrs: 3, MaxNotEquals: 2, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	return db, set
}

// trainSnapshot is the -save output of a GB model of the given size trained
// on the first 100 queries.
func trainSnapshot(t *testing.T, db *table.DB, set workload.Set, trees int) []byte {
	t.Helper()
	cfg := gb.DefaultConfig()
	cfg.NumTrees = trees
	loc, err := estimator.NewLocal(db, estimator.LocalConfig{
		NewFeaturizer: func(m *core.TableMeta, o core.Options) core.Featurizer { return core.NewConjunctive(m, o) },
		Opts:          core.Options{MaxEntriesPerAttr: 8, AttrSel: true},
		NewRegressor:  estimator.NewGBFactory(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(set[:100]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := loc.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixture writes what a small daemon would have left behind: a boot snapshot
// trained on the forest table replay rebuilds from -rows/-seed, and a journal
// of labeled held-out queries plus one record without feedback and one whose
// SQL does not parse. It returns the two paths and the records as written.
func fixture(t *testing.T) (snapshot, journalDir string, records []journal.Record) {
	t.Helper()
	db, set := testWorkload(t)
	dir := t.TempDir()
	snapshot = filepath.Join(dir, "boot.json")
	if err := os.WriteFile(snapshot, trainSnapshot(t, db, set, 10), 0o644); err != nil {
		t.Fatal(err)
	}

	for i, lq := range set[100:] {
		records = append(records, journal.Record{
			UnixMicros: int64(i) + 1, SQL: lq.Query.String(), Model: "boot",
			Actual: float64(lq.Card), HasActual: true,
		})
	}
	records = append(records,
		journal.Record{UnixMicros: 1000, SQL: set[0].Query.String(), Estimate: 5},
		journal.Record{UnixMicros: 1001, SQL: "this is not SQL", Actual: 3, HasActual: true},
	)
	journalDir = filepath.Join(dir, "journal")
	j, err := journal.Open(journalDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if !j.Append(rec) {
			t.Fatal("journal shed a record")
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshot, journalDir, records
}

// TestRunScoresSnapshotAndDerivesCanary: -snapshot boot=… -json reports every
// record of the journal under the registry-style name, and -derive-canary
// prints exactly the canary replay.TrafficCanary draws from the same records.
func TestRunScoresSnapshotAndDerivesCanary(t *testing.T) {
	snapshot, dir, records := fixture(t)
	o := options{journalDir: dir, snapshots: "boot=" + snapshot, rows: testRows, seed: testSeed, deriveCanary: 8, asJSON: true}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	// The first line is the journal summary; the JSON document follows.
	summary, doc, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(summary, "42 record(s) across 1 segment(s)") {
		t.Errorf("summary line = %q", summary)
	}
	var got struct {
		Journal journal.ReadReport  `json:"journal"`
		Traffic replay.TrafficStats `json:"traffic"`
		Reports []replay.Report     `json:"reports"`
		Canary  []struct {
			SQL  string `json:"sql"`
			Card int64  `json:"card"`
		} `json:"canary"`
	}
	if err := json.Unmarshal([]byte(doc), &got); err != nil {
		t.Fatalf("output after the summary line is not one JSON document: %v\n%s", err, doc)
	}
	if got.Journal.Records != len(records) {
		t.Errorf("journal.records = %d, want %d", got.Journal.Records, len(records))
	}
	if want := replay.Traffic(records); got.Traffic != want {
		t.Errorf("traffic = %+v, want %+v", got.Traffic, want)
	}
	if len(got.Reports) != 1 {
		t.Fatalf("%d reports, want 1", len(got.Reports))
	}
	r := got.Reports[0]
	if r.Model != "boot" || r.Records != 42 || r.Scored != 40 || r.Unlabeled != 1 || r.Unparsed != 1 || r.Failed != 0 {
		t.Errorf("report = %+v, want boot / 42 records / 40 scored / 1 unlabeled / 1 unparsed / 0 failed", r)
	}
	if r.Median < 1 || r.Max < r.P95 || r.P95 < r.Median || r.PerTable["forest"].Queries != 40 {
		t.Errorf("q-error summary = median %v p95 %v max %v, forest %+v", r.Median, r.P95, r.Max, r.PerTable["forest"])
	}

	read, _, err := journal.Read(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := testWorkload(t)
	want := replay.TrafficCanary(read, 8, db)
	if len(want) != 8 || len(got.Canary) != len(want) {
		t.Fatalf("canary has %d queries, DeriveCanary %d, want 8", len(got.Canary), len(want))
	}
	for i, l := range want {
		if got.Canary[i].SQL != l.Query.String() || got.Canary[i].Card != l.Card {
			t.Errorf("canary[%d] = %+v, want %s / %d", i, got.Canary[i], l.Query, l.Card)
		}
	}

	// The same canary in the table form, with no model to score.
	out.Reset()
	if err := run(options{journalDir: dir, rows: testRows, seed: testSeed, deriveCanary: 8}, &out); err != nil {
		t.Fatalf("run -derive-canary: %v", err)
	}
	if !strings.Contains(out.String(), "traffic-derived canary (8 of 8 requested)") {
		t.Errorf("no canary header in:\n%s", out.String())
	}
	for _, l := range want {
		if !strings.Contains(out.String(), l.Query.String()) {
			t.Errorf("canary query %s missing from:\n%s", l.Query, out.String())
		}
	}
}

// TestDerivedCanaryIsTheDoorsSample: -derive-canary N prints the sample a
// serving lifecycle with an N-query held-out set judges a candidate on. The
// candidate scored on the printed queries reads the verdict the lifecycle gave
// it — query count, median and p95 bit for bit — over a journal whose traffic
// repeats and holds a query on a column the table lacks, which the printed
// sample leaves out as the lifecycle does.
func TestDerivedCanaryIsTheDoorsSample(t *testing.T) {
	const n = 12
	const unbound = "SELECT count(*) FROM forest WHERE Z9 >= 3"
	db, set := testWorkload(t)
	dir := filepath.Join(t.TempDir(), "journal")
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, lq := range set[100:] {
			jnl.Append(journal.Record{SQL: lq.Query.String(), Actual: float64(lq.Card), HasActual: true})
		}
		jnl.Append(journal.Record{SQL: unbound, Actual: 5, HasActual: true})
	}
	jnl.Close()
	jnl, err = journal.Open(dir, journal.Options{}) // the reopen seals the segment
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()

	ceilings := serve.CanaryConfig{MaxMedian: 1e18, MaxP95: 1e18}
	gate := ceilings
	gate.Workload = set[100 : 100+n]
	lc, err := serve.NewLifecycle(serve.LifecycleConfig{Registry: serve.NewRegistry(), Journal: jnl, DB: db, Canary: gate})
	if err != nil {
		t.Fatal(err)
	}
	candidate := trainSnapshot(t, db, set, 2)
	var pub serve.Publication
	for _, snap := range [][]byte{trainSnapshot(t, db, set, 10), candidate} {
		if pub, err = lc.Publish(context.Background(), serve.PublishSpec{Name: "live", Snapshot: snap, MakeDefault: true}); err != nil {
			t.Fatal(err)
		}
	}

	var out bytes.Buffer
	if err := run(options{journalDir: dir, rows: testRows, seed: testSeed, deriveCanary: n, asJSON: true}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	_, doc, _ := strings.Cut(out.String(), "\n")
	var got struct {
		Canary []struct {
			SQL  string `json:"sql"`
			Card int64  `json:"card"`
		} `json:"canary"`
	}
	if err := json.Unmarshal([]byte(doc), &got); err != nil {
		t.Fatal(err)
	}
	printed := ceilings
	for _, c := range got.Canary {
		if c.SQL == unbound {
			t.Errorf("the printed sample holds %s, which does not bind", c.SQL)
		}
		q := sqlparse.MustParse(c.SQL)
		if err := exec.Bind(q, db); err != nil {
			t.Fatal(err)
		}
		printed.Workload = append(printed.Workload, workload.Labeled{Query: q, Card: c.Card})
	}
	est, _, err := estimator.LoadEstimator(bytes.NewReader(candidate), db)
	if err != nil {
		t.Fatal(err)
	}
	res := serve.RunCanary(context.Background(), est, printed, nil)
	if res.Queries != pub.Canary.Queries || math.Float64bits(res.Median) != math.Float64bits(pub.Canary.Median) ||
		math.Float64bits(res.P95) != math.Float64bits(pub.Canary.P95) {
		t.Errorf("on the printed sample the candidate reads median %v / p95 %v over %d; the lifecycle judged it %v / %v over %d (%s)",
			res.Median, res.P95, res.Queries, pub.Canary.Median, pub.Canary.P95, pub.Canary.Queries, pub.Canary.Reason)
	}
}

// TestRunPrintsTraffic: with no model to score, the journal summary and the
// traffic line — replay.Traffic of the journal's records — are the report.
func TestRunPrintsTraffic(t *testing.T) {
	_, dir, records := fixture(t)
	var out bytes.Buffer
	if err := run(options{journalDir: dir, rows: testRows, seed: testSeed}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	want := replay.Traffic(records)
	if want != (replay.TrafficStats{Records: 42, DistinctTexts: 42, DistinctFingerprints: 41}) {
		t.Fatalf("fixture traffic = %+v, want 42 records, 42 texts, 41 classes (one text does not parse), none a respelling", want)
	}
	const line = "traffic: records 42 | distinct_texts 42 | distinct_fingerprints 41 | semantic_only 0 (0.00% of records)\n"
	if !strings.HasSuffix(out.String(), line) {
		t.Errorf("output %q does not end in %q", out.String(), line)
	}
}

// TestRunScoresEveryStoreGeneration: -store scores each valid generation of
// a crash-safe model store under gen-N (published-as name) — the first holds
// the bytes -snapshot scored, so its report is that one; the second is a
// smaller model and scores differently; and a snapshot given alongside comes
// first.
func TestRunScoresEveryStoreGeneration(t *testing.T) {
	snapshot, dir, _ := fixture(t)
	boot, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	db, set := testWorkload(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("boot", "", boot); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("retrained", "", trainSnapshot(t, db, set, 2)); err != nil {
		t.Fatal(err)
	}

	o := options{journalDir: dir, snapshots: "file=" + snapshot, storeDir: storeDir, rows: testRows, seed: testSeed, asJSON: true}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	_, doc, _ := strings.Cut(out.String(), "\n")
	var got struct {
		Reports []replay.Report `json:"reports"`
	}
	if err := json.Unmarshal([]byte(doc), &got); err != nil {
		t.Fatalf("output after the summary line is not one JSON document: %v\n%s", err, doc)
	}
	if len(got.Reports) != 3 {
		t.Fatalf("%d reports, want the snapshot and two generations", len(got.Reports))
	}
	file, gen1, gen2 := got.Reports[0], got.Reports[1], got.Reports[2]
	if file.Model != "file" || gen1.Model != "gen-1 (boot)" || gen2.Model != "gen-2 (retrained)" {
		t.Errorf("models = %q, %q, %q", file.Model, gen1.Model, gen2.Model)
	}
	for _, r := range got.Reports {
		if r.Records != 42 || r.Scored != 40 || r.Failed != 0 {
			t.Errorf("%s: %d records, %d scored, %d failed; want 42 / 40 / 0", r.Model, r.Records, r.Scored, r.Failed)
		}
	}
	if gen1.Median != file.Median || gen1.P95 != file.P95 || gen1.Max != file.Max {
		t.Errorf("gen-1 holds the snapshot's bytes but scores %v/%v/%v, the snapshot %v/%v/%v",
			gen1.Median, gen1.P95, gen1.Max, file.Median, file.P95, file.Max)
	}
	if gen2.Median == gen1.Median && gen2.P95 == gen1.P95 && gen2.Max == gen1.Max {
		t.Errorf("a 2-tree generation scores exactly as the 10-tree one (%v/%v/%v): was its own payload read?",
			gen2.Median, gen2.P95, gen2.Max)
	}

	// The table form names both generations too.
	out.Reset()
	if err := run(options{journalDir: dir, storeDir: storeDir, rows: testRows, seed: testSeed}, &out); err != nil {
		t.Fatalf("run -store: %v", err)
	}
	for _, want := range []string{"model gen-1 (boot)", "model gen-2 (retrained)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("%q missing from:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsBadInvocations: what the command line can get wrong is an
// error from run, never a panic.
func TestRunRejectsBadInvocations(t *testing.T) {
	snapshot, dir, _ := fixture(t)
	for name, tc := range map[string]struct {
		o    options
		want string
	}{
		"no -journal":      {options{snapshots: "boot=" + snapshot}, "-journal is required"},
		"empty journal":    {options{journalDir: t.TempDir(), snapshots: "boot=" + snapshot}, "no records"},
		"empty store":      {options{journalDir: dir, storeDir: t.TempDir()}, "nothing to score"},
		"malformed pair":   {options{journalDir: dir, snapshots: "boot"}, "name=path"},
		"missing snapshot": {options{journalDir: dir, snapshots: "boot=" + snapshot + ".gone"}, "no such file"},
	} {
		tc.o.rows, tc.o.seed = testRows, testSeed
		var out bytes.Buffer
		if err := run(tc.o, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}
