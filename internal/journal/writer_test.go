package journal_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qfe/internal/clock"
	"qfe/internal/journal"
	"qfe/internal/store"
	"qfe/internal/testutil"
)

// parentSegment is the segment the writer wrote when it encoded records
// with encoding/json: Append stamped a zero timestamp with now, and the
// writer framed json.Marshal of each record, skipping any it refused. It is
// the oracle the hand encoder's segment must equal byte for byte.
func parentSegment(t *testing.T, now time.Time, recs []journal.Record) []byte {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
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
// fixed clock, the journal the writer encodes is byte-identical to the one
// json.Marshal in the writer wrote. The sequence covers a record with a
// fingerprint and records without one, every omitempty field empty and set,
// floats on both sides of the exponent-form cutoffs and negative zero, text
// that json escapes (HTML-sensitive bytes, control characters, U+2028,
// invalid UTF-8), and records json.Marshal refuses (NaN, ±Inf), which both
// paths skip.
func TestSegmentMatchesParentHookPath(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	now := time.UnixMicro(1_700_000_000_123_456)
	shared := "SELECT count(*) FROM t WHERE a >= 1 AND s = 'x<y>&z'"
	other := "SELECT count(*) FROM t WHERE (a >= 1 AND b < 7) OR (c <> 3 AND d <= 4)"
	recs := []journal.Record{
		{SQL: shared, Model: "boot", Generation: 1, Estimate: 12.5, Actual: 10, HasActual: true, LatencyMicros: 3},
		{SQL: shared, Model: "boot", Generation: 1, Estimate: 12.5},
		{SQL: other, Estimate: 1e-7, Actual: 0, HasActual: true},
		{UnixMicros: 42, SQL: "tab\there \"quoted\" \\ <b>", Fingerprint: "preset", Estimate: 1e21, Actual: 3e22, HasActual: true, LatencyMicros: -1},
		{SQL: "line\u2028sep \xff bad", Estimate: math.Copysign(0, -1), Generation: math.MaxUint64},
		{SQL: shared, Estimate: math.NaN(), Actual: 4, HasActual: true},
		{SQL: other, Estimate: 2, Actual: math.Inf(1), HasActual: true},
		{SQL: other, Estimate: 123456789.125, Actual: 7, HasActual: true, LatencyMicros: math.MaxInt64},
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
