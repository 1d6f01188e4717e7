package journal

import (
	"encoding/json"
	"math"
	"testing"

	"qfe/internal/store"
)

// FuzzJournalRead throws arbitrary bytes at the segment scanner — the
// routine both crash recovery and the offline reader stand on — and checks
// the classification invariants: every input lands in exactly one of clean /
// truncated / corrupt, the valid prefix never exceeds the input, and
// re-scanning the valid prefix is clean and yields the same records (which
// is precisely what makes torn-tail truncation a safe repair).
func FuzzJournalRead(f *testing.F) {
	var clean []byte
	for i := 0; i < 3; i++ {
		payload, err := json.Marshal(Record{
			UnixMicros: int64(i) + 1,
			SQL:        "SELECT count(*) FROM t WHERE a >= 1",
			Estimate:   2,
			Actual:     1,
			HasActual:  true,
		})
		if err != nil {
			f.Fatal(err)
		}
		clean = store.AppendFrame(clean, store.PayloadJournal, payload)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5]) // torn tail
	f.Add([]byte{})
	f.Add([]byte("QFES, but not really"))
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 0x40 // mid-file bit rot
	f.Add(flipped)
	// A checksummed frame of the right kind whose payload is not a Record.
	f.Add(store.AppendFrame(nil, store.PayloadJournal, []byte("[1,2,3]")))

	f.Fuzz(func(t *testing.T, data []byte) {
		scan := scanBytes(data)
		if scan.valid < 0 || scan.valid > scan.total || scan.total != int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", scan.valid, len(data))
		}
		if scan.truncated && scan.corrupt {
			t.Fatal("segment classified both truncated and corrupt")
		}
		if !scan.truncated && !scan.corrupt && scan.valid != scan.total {
			t.Fatalf("clean scan stopped at %d of %d bytes", scan.valid, scan.total)
		}
		if (scan.truncated || scan.corrupt) && scan.valid == scan.total {
			t.Fatal("damaged scan claims every byte is valid")
		}
		re := scanBytes(data[:scan.valid])
		if re.truncated || re.corrupt {
			t.Fatalf("valid prefix re-scans as damaged (truncated=%v corrupt=%v)", re.truncated, re.corrupt)
		}
		if len(re.records) != len(scan.records) {
			t.Fatalf("valid prefix yields %d records, original scan %d", len(re.records), len(scan.records))
		}
	})
}

// FuzzRecordEncoding holds the writer's hand-written record encoder to
// encoding/json, its oracle: any Record encodes to json.Marshal's bytes, and
// one that json.Marshal refuses (a NaN or infinite estimate or actual) is
// refused by both, so flush skips it either way.
func FuzzRecordEncoding(f *testing.F) {
	f.Add(int64(1), "SELECT count(*) FROM t WHERE a >= 1", "fp", "boot", uint64(1), 2.5, 1.0, true, int64(3))
	f.Add(int64(0), "", "", "", uint64(0), 0.0, 0.0, false, int64(0))
	f.Add(int64(-7), "<b>&\"\\\n\x00 \xff", "\t", "m ", uint64(1<<63), -1e-7, 1e21, false, int64(-1))
	f.Add(int64(9), "q", "", "", uint64(0), math.NaN(), 4.0, true, int64(0))
	f.Add(int64(9), "q", "", "", uint64(0), 2.0, math.Inf(-1), true, int64(0))
	f.Add(int64(9), "q", "", "", uint64(0), math.Copysign(0, -1), math.Copysign(0, -1), true, int64(0))
	f.Fuzz(func(t *testing.T, ts int64, sql, fp, model string, gen uint64, est, actual float64, has bool, lat int64) {
		rec := Record{UnixMicros: ts, SQL: sql, Fingerprint: fp, Model: model, Generation: gen,
			Estimate: est, Actual: actual, HasActual: has, LatencyMicros: lat}
		want, err := json.Marshal(rec)
		got, ok := appendRecord(nil, &rec)
		if ok != (err == nil) {
			t.Fatalf("appendRecord ok = %v, json.Marshal err = %v, for %+v", ok, err, rec)
		}
		if ok && string(got) != string(want) {
			t.Fatalf("appendRecord(%+v)\n got %s\nwant %s", rec, got, want)
		}
	})
}
