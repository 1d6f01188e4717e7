package journal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qfe/internal/clock"
	"qfe/internal/journal"
	"qfe/internal/resilience/faultinject"
	"qfe/internal/store"
	"qfe/internal/testutil"
)

// The crash sweep drives the journal's whole write path — append, batch
// flush, rotation, retention GC, recovery — through every filesystem fault
// kind at every operation ordinal, and asserts the two invariants the
// journal promises:
//
//	acked ⊆ recovered ⊆ appended
//
// A record whose Sync returned nil is never lost (no matter where the fault
// fired), and recovery never resurrects anything that was not appended —
// torn frames are truncated away, bit-rotted segments quarantined, never
// decoded into phantom records.

// seedSweepWidth matches the store's crash-suite convention: QFE_SOAK widens
// the per-fault-point seed sweep, -short collapses it to one.
func seedSweepWidth(t *testing.T) int {
	t.Helper()
	if os.Getenv("QFE_SOAK") != "" {
		return 25
	}
	if testing.Short() {
		return 1
	}
	return 3
}

// sweepPlan shapes one deterministic journal workload.
type sweepPlan struct {
	name         string
	segmentBytes int64
	retain       int
}

var sweepPlans = []sweepPlan{
	// flat: everything lands in one segment; faults hit the batch appends.
	{name: "flat", segmentBytes: 1 << 30, retain: -1},
	// rotate: every batch seals a segment; faults hit appends interleaved
	// with rotation bookkeeping, nothing is ever GC'd.
	{name: "rotate", segmentBytes: 1, retain: -1},
	// gc: rotation plus a one-segment retention horizon; faults also hit the
	// RemoveAll calls of retention GC.
	{name: "gc", segmentBytes: 1, retain: 1},
}

// planOutcome records what the workload managed before/despite the fault.
type planOutcome struct {
	appended  map[int64]bool // accepted by Append, keyed by UnixMicros
	acked     map[int64]bool // covered by a nil Sync
	lastBatch []int64        // the most recent fully-acked batch, in order
}

// runSweepPlan drives 4 batches of 3 records through a journal on fsys. Its
// clock is a fake nothing advances, so the ONLY filesystem activity is what
// Sync forces, making the operation ordinals deterministic for the fault
// sweep. Open
// failing (fault at MkdirAll) is a legal outcome: nothing was accepted.
func runSweepPlan(t *testing.T, dir string, fsys store.FS, plan sweepPlan) planOutcome {
	t.Helper()
	out := planOutcome{appended: map[int64]bool{}, acked: map[int64]bool{}}
	jnl, err := journal.Open(dir, journal.Options{
		SegmentBytes: plan.segmentBytes,
		Retain:       plan.retain,
		FS:           fsys,
		Clock:        clock.NewFake(epoch),
	})
	if err != nil {
		return out
	}
	idx := 0
	for batch := 0; batch < 4; batch++ {
		var accepted []int64
		for k := 0; k < 3; k++ {
			rec := testRec(idx)
			if jnl.Append(rec) {
				out.appended[rec.UnixMicros] = true
				accepted = append(accepted, rec.UnixMicros)
			}
			idx++
		}
		if jnl.Sync() == nil {
			for _, u := range accepted {
				out.acked[u] = true
			}
			out.lastBatch = accepted
		}
	}
	jnl.Close()
	return out
}

// verifyRecovered reopens dir on a clean filesystem and checks the journal's
// recovery promises against what the faulted run achieved.
func verifyRecovered(t *testing.T, dir string, out planOutcome, plan sweepPlan, label string) {
	t.Helper()
	// The tolerant reader must cope with the crash state as-is, read-only.
	if _, _, err := journal.Read(nil, dir); err != nil && !os.IsNotExist(err) {
		t.Fatalf("%s: tolerant Read over crash state: %v", label, err)
	}
	jnl, err := journal.Open(dir, testOptions(nil))
	if err != nil {
		t.Fatalf("%s: recovery Open failed: %v", label, err)
	}
	defer jnl.Close()
	recs, err := jnl.ReadSealed()
	if err != nil {
		t.Fatalf("%s: ReadSealed after recovery: %v", label, err)
	}
	recovered := map[int64]bool{}
	last := int64(0)
	for _, rec := range recs {
		i := int(rec.UnixMicros) - 1
		if i < 0 || !out.appended[rec.UnixMicros] {
			t.Fatalf("%s: recovered record %+v was never appended", label, rec)
		}
		if rec != testRec(i) {
			t.Fatalf("%s: recovered record %+v does not match what was appended (%+v) — a torn or rotted frame was trusted", label, rec, testRec(i))
		}
		if rec.UnixMicros <= last {
			t.Fatalf("%s: recovered records out of order at %d after %d", label, rec.UnixMicros, last)
		}
		last = rec.UnixMicros
		recovered[rec.UnixMicros] = true
	}
	if plan.retain < 0 {
		// No GC: every acked record must survive any fault anywhere.
		for u := range out.acked {
			if !recovered[u] {
				t.Fatalf("%s: acked record %d lost (recovered %d of %d acked)", label, u, len(recovered), len(out.acked))
			}
		}
	} else {
		// Retention GC deletes old records by policy, but the newest acked
		// batch lives in the newest sealed segment and is never its victim.
		for _, u := range out.lastBatch {
			if !recovered[u] {
				t.Fatalf("%s: record %d of the final acked batch lost to recovery", label, u)
			}
		}
	}
}

func TestCrashSweepWritePath(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	width := seedSweepWidth(t)
	for _, plan := range sweepPlans {
		plan := plan
		t.Run(plan.name, func(t *testing.T) {
			// Clean pass first: count the mutating operations to sweep.
			counter := faultinject.NewFS(nil, faultinject.FSConfig{Kind: faultinject.FSNone})
			base := runSweepPlan(t, filepath.Join(t.TempDir(), "count"), counter, plan)
			ops := counter.MutatingOps()
			if ops < 5 { // MkdirAll + four batch appends at minimum
				t.Fatalf("clean pass performed only %d mutating ops", ops)
			}
			if len(base.acked) != 12 {
				t.Fatalf("clean pass acked %d records, want all 12", len(base.acked))
			}
			for _, kind := range []faultinject.FSFaultKind{faultinject.FSCrash, faultinject.FSTornWrite, faultinject.FSENOSPC} {
				for op := 1; op <= ops; op++ {
					for s := 0; s < width; s++ {
						label := fmt.Sprintf("%s/%s/op=%d/seed=%d", plan.name, kind, op, s)
						dir := filepath.Join(t.TempDir(), "run")
						fi := faultinject.NewFS(nil, faultinject.FSConfig{Seed: int64(op*101 + s), Kind: kind, Op: op})
						out := runSweepPlan(t, dir, fi, plan)
						verifyRecovered(t, dir, out, plan, label)
					}
				}
			}
		})
	}
}

// TestReadFaultSweep injects read-side faults (short reads, bit flips) into
// recovery itself: Open must never panic, never error out of a recoverable
// state, and never hand damaged bytes to a reader — a flipped bit fails the
// frame checksum (quarantine), a short read looks like a torn tail
// (truncate). Records CAN legitimately disappear here — a short read is
// indistinguishable from a torn tail and a flipped bit from real rot, and
// repairing accordingly is the correct response — so unlike the write-path
// sweep this one asserts integrity (everything served is intact and was
// appended), not acked-completeness.
func TestReadFaultSweep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	width := seedSweepWidth(t)
	for _, kind := range []faultinject.FSFaultKind{faultinject.FSShortRead, faultinject.FSBitFlip} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for s := 0; s < width; s++ {
				dir := filepath.Join(t.TempDir(), "run")
				out := runSweepPlan(t, dir, store.OSFS(), sweepPlan{name: "flat", segmentBytes: 1, retain: -1})
				if len(out.acked) != 12 {
					t.Fatalf("seed %d: clean run acked %d records", s, len(out.acked))
				}
				// Recovery under a read fault: every segment scan is a
				// ReadFile, so sweep the fault across all of them.
				counter := faultinject.NewFS(nil, faultinject.FSConfig{Kind: faultinject.FSNone})
				jnl, err := journal.Open(dir, testOptions(func(o *journal.Options) { o.FS = counter }))
				if err != nil {
					t.Fatalf("seed %d: clean recovery: %v", s, err)
				}
				jnl.Close()
				reads := counter.Reads()
				if reads == 0 {
					t.Fatalf("seed %d: recovery performed no reads", s)
				}
				for op := 1; op <= reads; op++ {
					fi := faultinject.NewFS(nil, faultinject.FSConfig{Seed: int64(op*131 + s), Kind: kind, Op: op})
					faulted, err := journal.Open(dir, testOptions(func(o *journal.Options) { o.FS = fi }))
					if err != nil {
						t.Fatalf("seed %d %s op %d: recovery errored instead of repairing: %v", s, kind, op, err)
					}
					recs, _ := faulted.ReadSealed()
					for _, rec := range recs {
						i := int(rec.UnixMicros) - 1
						if i < 0 || i >= 12 || rec != testRec(i) {
							t.Fatalf("seed %d %s op %d: recovery served damaged record %+v", s, kind, op, rec)
						}
					}
					faulted.Close()
					// Re-recovery on clean disk still holds the subset and
					// integrity invariants (acked-completeness waived: the
					// faulted repair may have correctly discarded records it
					// could only see as damaged).
					sub := planOutcome{appended: out.appended, acked: map[int64]bool{}}
					verifyRecovered(t, dir, sub, sweepPlan{retain: -1}, fmt.Sprintf("%s/post-op%d/seed%d", kind, op, s))
				}
			}
		})
	}
}
