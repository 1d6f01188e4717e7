package journal_test

import (
	"fmt"
	"testing"
	"time"

	"qfe/internal/journal"
)

// BenchmarkAppendDurable is the argument for the journal's batching writer:
// durably journaled records per second with one fsync per FlushBatch of 64
// (the default) against one fsync per record. Real temp directory, real
// fsyncs; the clock runs from the first Append until Sync has returned.
func BenchmarkAppendDurable(b *testing.B) {
	for _, batch := range []int{64, 1} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			jnl, err := journal.Open(b.TempDir(), testOptions(func(o *journal.Options) {
				o.FlushBatch, o.FlushEvery, o.Queue = batch, time.Millisecond, b.N
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
			}
			if err := jnl.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
