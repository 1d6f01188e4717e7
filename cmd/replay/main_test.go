package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/journal"
	"qfe/internal/ml/gb"
	"qfe/internal/replay"
	"qfe/internal/table"
	"qfe/internal/workload"
)

const (
	testRows = 1500
	testSeed = 3
)

// fixture writes what a small daemon would have left behind: a boot snapshot
// trained on the forest table replay rebuilds from -rows/-seed, and a journal
// of labeled held-out queries plus one record without feedback and one whose
// SQL does not parse. It returns the two paths and the records as written.
func fixture(t *testing.T) (snapshot, journalDir string, records []journal.Record) {
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
	cfg := gb.DefaultConfig()
	cfg.NumTrees = 10
	loc, err := estimator.NewLocal(db, estimator.LocalConfig{
		QFT:          "conjunctive",
		Opts:         core.Options{MaxEntriesPerAttr: 8, AttrSel: true},
		NewRegressor: estimator.NewGBFactory(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(set[:100]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapshot = filepath.Join(dir, "boot.json")
	var buf bytes.Buffer
	if err := loc.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshot, buf.Bytes(), 0o644); err != nil {
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
// prints exactly the canary replay.DeriveCanary draws from the same records.
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
		Journal journal.ReadReport `json:"journal"`
		Reports []replay.Report    `json:"reports"`
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
	want := replay.DeriveCanary(read, 8, testSeed)
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
		"nothing to do":    {options{journalDir: dir}, "nothing to do"},
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
