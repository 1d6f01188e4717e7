package journal_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qfe/internal/clock"
	"qfe/internal/core"
	"qfe/internal/journal"
	"qfe/internal/sqlparse"
	"qfe/internal/store"
	"qfe/internal/testutil"
)

// TestWriterNamesEachDistinctQueryOnce: one commit mixes records that share a
// *Query (a cache entry's), records with a query of their own — one of them
// the same text under another pointer — a record that arrives with its
// Fingerprint set and one with neither. Every record gets the key the
// feedback hook used to compute, core.Fingerprint of its query; the preset
// key is kept; the writer computes one key per distinct pointer; and the
// next commit names a query it has named before again, because nothing
// carries over between commits.
func TestWriterNamesEachDistinctQueryOnce(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		sqlShared = "SELECT count(*) FROM t WHERE a >= 1 AND b < 7"
		sqlOwn    = "SELECT count(*) FROM t WHERE (c <> 3 AND d <= 4) OR e = 2"
	)
	shared := sqlparse.MustParse(sqlShared)
	own := sqlparse.MustParse(sqlOwn)
	twin := sqlparse.MustParse(sqlShared) // shared's text, another pointer
	preset := sqlparse.MustParse(sqlOwn)
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(nil))
	batch := []journal.Record{
		{SQL: sqlShared, Query: shared},
		{SQL: sqlOwn, Query: own},
		{SQL: sqlShared, Query: shared},
		{SQL: sqlOwn, Query: preset, Fingerprint: "kept"},
		{SQL: sqlShared, Query: twin},
		{SQL: "no query"},
		{SQL: sqlShared, Query: shared},
	}
	for _, rec := range batch {
		if !jnl.Append(rec) {
			t.Fatal("Append shed")
		}
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := jnl.Stats().Fingerprints; got != 3 {
		t.Errorf("the writer computed %d keys for one commit over 3 distinct queries, want 3", got)
	}
	want := []string{core.Fingerprint(shared), core.Fingerprint(own), core.Fingerprint(shared), "kept", core.Fingerprint(twin), "", core.Fingerprint(shared)}

	// The next commit shares shared again: named afresh, once.
	for i := 0; i < 3; i++ {
		jnl.Append(journal.Record{SQL: sqlShared, Query: shared})
		want = append(want, core.Fingerprint(shared))
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := jnl.Stats().Fingerprints; got != 4 {
		t.Errorf("after a second commit sharing one query the writer computed %d keys, want 4", got)
	}
	jnl.Close()
	recs, _, err := journal.Read(nil, dir)
	if err != nil || len(recs) != len(want) {
		t.Fatalf("read back %d records (err %v), want %d", len(recs), err, len(want))
	}
	for i, rec := range recs {
		if rec.Fingerprint != want[i] {
			t.Errorf("record %d (%q) journaled under %q, want %q", i, rec.SQL, rec.Fingerprint, want[i])
		}
		if rec.Query != nil {
			t.Errorf("record %d read back with a query", i)
		}
	}
}

// parentSegment is the segment the feedback path wrote before the writer
// named records: the hook filed each record under core.Fingerprint of its
// query, Append stamped a zero timestamp with now, and the writer framed
// json.Marshal of each record, skipping any it refused. It is the oracle the
// change's segment must equal byte for byte.
func parentSegment(t *testing.T, now time.Time, recs []journal.Record) []byte {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		if rec.Query != nil && rec.Fingerprint == "" {
			rec.Fingerprint = core.Fingerprint(rec.Query)
		}
		rec.Query = nil
		if rec.UnixMicros == 0 {
			rec.UnixMicros = now.UnixMicro()
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			continue
		}
		buf = store.AppendFrame(buf, store.PayloadJournal, payload)
	}
	return buf
}

// TestSegmentMatchesParentHookPath: from one fixed record sequence and one
// fixed clock, the journal the writer names and encodes is byte-identical to
// the one the old path — fingerprint in the hook, json.Marshal in the writer
// — wrote. The sequence covers shared and own queries, a preset key, every
// omitempty field empty and set, floats on both sides of the exponent-form
// cutoffs and negative zero, text that json escapes (HTML-sensitive bytes,
// control characters, U+2028, invalid UTF-8), and records json.Marshal
// refuses (NaN, ±Inf), which both paths skip.
func TestSegmentMatchesParentHookPath(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	now := time.UnixMicro(1_700_000_000_123_456)
	shared := sqlparse.MustParse("SELECT count(*) FROM t WHERE a >= 1 AND s = 'x<y>&z'")
	other := sqlparse.MustParse("SELECT count(*) FROM t WHERE (a >= 1 AND b < 7) OR (c <> 3 AND d <= 4)")
	recs := []journal.Record{
		{SQL: shared.String(), Query: shared, Model: "boot", Generation: 1, Estimate: 12.5, Actual: 10, HasActual: true, LatencyMicros: 3},
		{SQL: shared.String(), Query: shared, Model: "boot", Generation: 1, Estimate: 12.5},
		{SQL: other.String(), Query: other, Estimate: 1e-7, Actual: 0, HasActual: true},
		{UnixMicros: 42, SQL: "tab\there \"quoted\" \\ <b>", Query: other, Fingerprint: "preset", Estimate: 1e21, Actual: 3e22, HasActual: true, LatencyMicros: -1},
		{SQL: "line\u2028sep \xff bad", Estimate: math.Copysign(0, -1), Generation: math.MaxUint64},
		{SQL: shared.String(), Query: shared, Estimate: math.NaN(), Actual: 4, HasActual: true},
		{SQL: other.String(), Query: other, Estimate: 2, Actual: math.Inf(1), HasActual: true},
		{SQL: other.String(), Query: other, Estimate: 123456789.125, Actual: 7, HasActual: true, LatencyMicros: math.MaxInt64},
		{UnixMicros: math.MinInt64, SQL: "", Estimate: -4.25e-9},
	}
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(func(o *journal.Options) { o.Clock = clock.NewFake(now) }))
	for _, rec := range recs {
		if !jnl.Append(rec) {
			t.Fatal("Append shed")
		}
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	got, err := os.ReadFile(filepath.Join(dir, "seg-00000001.qfej"))
	if err != nil {
		t.Fatal(err)
	}
	want := parentSegment(t, now, recs)
	if string(got) != string(want) {
		t.Fatalf("segment differs from the old path's:\n got %q\nwant %q", got, want)
	}
	if s := jnl.Stats(); s.Persisted != 7 || s.Dropped != 2 {
		t.Errorf("stats = %+v, want the 7 encodable records persisted and the 2 others dropped", s)
	}
}
