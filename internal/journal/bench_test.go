package journal_test

import (
	"fmt"
	"runtime"
	"testing"

	"qfe/internal/journal"
	"qfe/internal/sqlparse"
	"qfe/internal/store"
)

// BenchmarkAppendDurable is the argument for the journal's batching writer:
// durably journaled records per second when the writer is woken per batch
// (the count trigger at half of the staging queue, and everything staged goes
// out under one fsync) against one fsync per record (Append then Sync, what a
// producer that waits for each record to persist pays: one that runs ahead of
// the disk is group-committed). Real temp directory, real fsyncs, the real
// clock; the clock runs from the first Append until the last Sync has
// returned.
func BenchmarkAppendDurable(b *testing.B) {
	for _, arm := range []struct {
		name      string
		perRecord bool
	}{{"batch", false}, {"per-record", true}} {
		b.Run(arm.name, func(b *testing.B) {
			jnl, err := journal.Open(b.TempDir(), journal.Options{SegmentBytes: 1 << 30, Retain: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer jnl.Close()
			rec := testRec(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for !jnl.Append(rec) {
					runtime.Gosched() // staging is full: the producer outran the disk
				}
				if arm.perRecord {
					if err := jnl.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := jnl.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(jnl.Stats().Flushes)/float64(b.N), "fsyncs/record")
		})
	}
}

// discardFS commits nothing: a flush costs only what the writer does before
// the disk — naming the records, encoding and framing them.
type discardFS struct{ store.FS }

func (discardFS) AppendFile(string, []byte) error { return nil }

// BenchmarkFlushFingerprints is the argument for naming records in the
// writer: a commit of 350 records (what feedback-hot stages per 50 ms) over
// 64 queries the records share, as cache hits hand them over, against 350
// queries of their own, as misses do. The shared commit computes at most 64
// class keys, the distinct one 350; encoding and framing are the same in
// both. The queries are mixed AND/OR predicates over eight columns.
func BenchmarkFlushFingerprints(b *testing.B) {
	const perCommit, keys = 350, 64
	query := func(i int) *sqlparse.Query {
		return sqlparse.MustParse(fmt.Sprintf(
			"SELECT count(*) FROM t WHERE (a >= %d AND b < %d) OR (c <> %d AND d <= %d AND e > %d) OR (f = %d AND g >= %d AND h < %d)",
			i, i+7, i%5, i+3, i/2, i%11, i+1, i+9))
	}
	for _, arm := range []struct {
		name     string
		distinct int
	}{{"repeated", keys}, {"distinct", perCommit}} {
		b.Run(arm.name, func(b *testing.B) {
			qs := make([]*sqlparse.Query, arm.distinct)
			texts := make([]string, arm.distinct)
			for i := range qs {
				qs[i] = query(i)
				texts[i] = qs[i].String()
			}
			jnl, err := journal.Open(b.TempDir(), testOptions(func(o *journal.Options) { o.FS = discardFS{store.OSFS()} }))
			if err != nil {
				b.Fatal(err)
			}
			defer jnl.Close()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < perCommit; i++ {
					k := i % len(qs)
					if !jnl.Append(journal.Record{SQL: texts[k], Query: qs[k], Estimate: 12.5, Actual: 10, HasActual: true, LatencyMicros: 3}) {
						b.Fatal("Append shed a record")
					}
				}
				if err := jnl.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s := jnl.Stats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perCommit), "ns/record")
			b.ReportMetric(float64(s.Fingerprints)/float64(s.Persisted), "fingerprints/record")
		})
	}
}
