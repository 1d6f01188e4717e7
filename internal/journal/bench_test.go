package journal_test

import (
	"runtime"
	"testing"

	"qfe/internal/journal"
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
