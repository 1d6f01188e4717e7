package journal_test

import (
	"testing"
	"time"

	"qfe/internal/journal"
)

// BenchmarkAppendDurable is the argument for the journal's batching writer:
// durably journaled records per second when the writer is woken per batch
// (FlushBatch 512, half of the default Queue, and everything staged goes out
// under one fsync) against one fsync per record (FlushBatch 1 and a producer
// that waits for each record to persist, which is what it takes: a producer
// that runs ahead of the disk is group-committed whatever FlushBatch says).
// Real temp directory, real fsyncs; the clock runs from the first Append
// until the last Sync has returned.
func BenchmarkAppendDurable(b *testing.B) {
	for _, arm := range []struct {
		name      string
		batch     int
		perRecord bool
	}{{"batch=512", 512, false}, {"batch=1", 1, true}} {
		b.Run(arm.name, func(b *testing.B) {
			jnl, err := journal.Open(b.TempDir(), testOptions(func(o *journal.Options) {
				o.FlushBatch, o.FlushEvery, o.Queue = arm.batch, time.Millisecond, b.N
			}))
			if err != nil {
				b.Fatal(err)
			}
			defer jnl.Close()
			rec := testRec(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !jnl.Append(rec) {
					b.Fatal("Append shed a record")
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
