package journal_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/clock"
	"qfe/internal/journal"
	"qfe/internal/resilience/faultinject"
	"qfe/internal/store"
	"qfe/internal/testutil"
)

// The journal's shipped sizes, which the tests drive it to.
const (
	queueCap   = 1024                  // staged records before Append sheds
	flushBatch = queueCap / 2          // the staging depth that wakes the writer
	flushEvery = 50 * time.Millisecond // the writer's timer
	segmentAge = 15 * time.Minute
)

// epoch is where each test's fake clock starts.
var epoch = time.Unix(1_700_000_000, 0)

// testOptions returns options that make the journal fully deterministic for
// tests: a fake clock nothing advances unless the test does, so the flush
// timer never fires and no segment ages, and tests stage fewer than flushBatch
// records, so the only commits are the ones Sync forces and the only
// rotations are the ones the options ask for.
func testOptions(mutate func(*journal.Options)) journal.Options {
	opts := journal.Options{SegmentBytes: 1 << 30, Retain: -1, Clock: clock.NewFake(epoch)}
	if mutate != nil {
		mutate(&opts)
	}
	return opts
}

// testRec builds a fully-populated record keyed by i: UnixMicros is i+1, so
// i == 0 still round-trips (Append stamps only a zero timestamp).
func testRec(i int) journal.Record {
	return journal.Record{
		UnixMicros:    int64(i) + 1,
		SQL:           fmt.Sprintf("SELECT count(*) FROM t WHERE a >= %d", i),
		Fingerprint:   fmt.Sprintf("fp-%04d", i),
		Model:         "m",
		Generation:    7,
		Estimate:      float64(i) * 2,
		Actual:        float64(i),
		HasActual:     true,
		LatencyMicros: 5,
	}
}

func mustOpen(t *testing.T, dir string, opts journal.Options) *journal.Journal {
	t.Helper()
	jnl, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { jnl.Close() })
	return jnl
}

func appendAll(t *testing.T, jnl *journal.Journal, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if !jnl.Append(testRec(i)) {
			t.Fatalf("Append(%d) shed unexpectedly", i)
		}
	}
}

// segBytes renders records as the exact frame stream the writer produces,
// for tests that build damaged segments by hand.
func segBytes(t *testing.T, recs ...journal.Record) []byte {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = store.AppendFrame(buf, store.PayloadJournal, payload)
	}
	return buf
}

func TestAppendSyncReadBackRoundtrip(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(nil))
	appendAll(t, jnl, 0, 10)
	if err := jnl.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s := jnl.Stats()
	if s.Appended != 10 || s.Persisted != 10 || s.Shed != 0 || s.FlushErrors != 0 {
		t.Fatalf("stats after sync = %+v, want 10 appended+persisted, none shed", s)
	}
	if s.ActiveRecords != 10 || s.ActiveBytes <= 0 {
		t.Fatalf("active segment = %d records / %d bytes, want 10 / >0", s.ActiveRecords, s.ActiveBytes)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, rep, err := journal.Read(nil, dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if rep.Segments != 1 || rep.TornTails != 0 || rep.CorruptSegments != 0 {
		t.Fatalf("read report = %+v, want 1 clean segment", rep)
	}
	if len(recs) != 10 {
		t.Fatalf("read back %d records, want 10", len(recs))
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec, testRec(i)) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, testRec(i))
		}
	}
	// Record 0 has Actual 0 with HasActual set: a genuine empty result must
	// survive the omitempty JSON encoding distinguishable from "no feedback".
	if !recs[0].HasActual || recs[0].Actual != 0 {
		t.Fatalf("zero-actual record round-tripped as %+v; lost the has-actual bit", recs[0])
	}
}

func TestReopenSealsAndContinuesNumbering(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(nil))
	appendAll(t, jnl, 0, 3)
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	jnl2 := mustOpen(t, dir, testOptions(nil))
	if s := jnl2.Stats(); s.SealedSegments != 1 {
		t.Fatalf("after reopen: %d sealed segments, want 1", s.SealedSegments)
	}
	sealed, err := jnl2.ReadSealed()
	if err != nil || len(sealed) != 3 {
		t.Fatalf("ReadSealed = %d records (err %v), want 3", len(sealed), err)
	}
	segs := jnl2.Segments()
	if len(segs) != 2 || segs[0].Number != 1 || !segs[0].Sealed || segs[1].Number != 2 || segs[1].Sealed {
		t.Fatalf("segments after reopen = %+v, want sealed #1 + active #2", segs)
	}
	appendAll(t, jnl2, 3, 5)
	if err := jnl2.Sync(); err != nil {
		t.Fatal(err)
	}
	jnl2.Close()

	recs, _, err := journal.Read(nil, dir)
	if err != nil || len(recs) != 5 {
		t.Fatalf("Read after reopen+append = %d records (err %v), want 5", len(recs), err)
	}
	for i, rec := range recs {
		if rec.UnixMicros != int64(i)+1 {
			t.Fatalf("record %d out of order: UnixMicros %d", i, rec.UnixMicros)
		}
	}
}

func TestRotationBySizeAndRetentionGC(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(func(o *journal.Options) {
		o.SegmentBytes = 1 // every non-empty flush crosses the threshold
		o.Retain = 2
	}))
	for i := 0; i < 5; i++ {
		appendAll(t, jnl, i, i+1)
		if err := jnl.Sync(); err != nil {
			t.Fatalf("Sync %d: %v", i, err)
		}
	}
	s := jnl.Stats()
	if s.Rotations != 5 || s.GCRemoved != 3 || s.SealedSegments != 2 {
		t.Fatalf("stats = %+v, want 5 rotations, 3 GC removed, 2 sealed", s)
	}
	// The retained segments are the newest two, sealed with one record each.
	for i, seg := range jnl.Segments()[:2] {
		if seg.Number != uint64(i)+4 || seg.Records != 1 || !seg.Sealed {
			t.Fatalf("retained segment %d is %+v, want sealed #%d with 1 record", i, seg, i+4)
		}
	}
	jnl.Close()

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0].Name() != "seg-00000004.qfej" || names[1].Name() != "seg-00000005.qfej" {
		t.Fatalf("dir holds %v, want only segments 4 and 5", names)
	}
	recs, _, err := journal.Read(nil, dir)
	if err != nil || len(recs) != 2 {
		t.Fatalf("Read = %d records (err %v), want the 2 retained", len(recs), err)
	}
	if recs[0].UnixMicros != 4 || recs[1].UnixMicros != 5 {
		t.Fatalf("retained records are %d,%d, want the newest (4,5)", recs[0].UnixMicros, recs[1].UnixMicros)
	}
}

func TestRotationByAgeSparesEmptySegments(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	clk := clock.NewFake(epoch)
	jnl := mustOpen(t, t.TempDir(), testOptions(func(o *journal.Options) { o.Clock = clk }))
	appendAll(t, jnl, 0, 1)
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	// Each Advance also fires the flush timer; a flush of nothing staged
	// rotates on age alone, and the Sync after it sees the outcome.
	clk.Advance(segmentAge - time.Nanosecond)
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := jnl.Stats(); s.Rotations != 0 {
		t.Fatalf("rotated %d times before the age threshold", s.Rotations)
	}
	clk.Advance(time.Nanosecond)
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := jnl.Stats(); s.Rotations != 1 || s.SealedSegments != 1 {
		t.Fatalf("stats after aging = %+v, want exactly 1 rotation", s)
	}
	// An aged-out EMPTY segment is not sealed — the age clock restarts.
	clk.Advance(2 * segmentAge)
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := jnl.Stats(); s.Rotations != 1 {
		t.Fatalf("empty active segment was sealed by age (rotations %d)", s.Rotations)
	}
}

// gateFS wedges every AppendFile until gate is closed, signalling entry on
// entered — the deterministic "disk hung" the shed-not-block contract is
// about.
type gateFS struct {
	store.FS
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateFS) AppendFile(path string, data []byte) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.FS.AppendFile(path, data)
}

// TestAppendShedsInsteadOfBlockingOnWedgedDisk: with the writer stuck inside
// a commit, staging takes exactly queueCap more records and sheds every
// append past that — none before, none late — without ever waiting on the
// disk.
func TestAppendShedsInsteadOfBlockingOnWedgedDisk(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const extra = 5
	fsys := &gateFS{FS: store.OSFS(), entered: make(chan struct{}, 16), gate: make(chan struct{})}
	dir := t.TempDir()
	clk := clock.NewFake(epoch)
	jnl := mustOpen(t, dir, testOptions(func(o *journal.Options) {
		o.FS = fsys
		o.Clock = clk
	}))
	if !jnl.Append(testRec(0)) {
		t.Fatal("first append shed")
	}
	clk.Advance(flushEvery) // the timer's commit takes record 0 ...
	<-fsys.entered          // ... and is now stuck inside AppendFile
	for i := 1; i <= queueCap; i++ {
		if !jnl.Append(testRec(i)) {
			t.Fatalf("append %d of %d into empty staging shed early", i, queueCap)
		}
	}
	if s := jnl.Stats(); s.Staged != queueCap || s.Shed != 0 {
		t.Fatalf("stats = %+v, want %d staged and none shed", s, queueCap)
	}
	for i := 0; i < extra; i++ {
		if jnl.Append(testRec(queueCap + 1 + i)) {
			t.Fatal("append into full staging over a wedged disk was accepted")
		}
	}
	if s := jnl.Stats(); s.Shed != extra || s.Appended != queueCap+1 || s.Staged != queueCap {
		t.Fatalf("stats = %+v, want exactly the %d appends past queueCap shed", s, extra)
	}

	clk.Advance(time.Second) // the disk hangs for a second, then recovers ...
	close(fsys.gate)         // ... and everything accepted must drain
	if err := jnl.Sync(); err != nil {
		t.Fatalf("Sync after recovery: %v", err)
	}
	if s := jnl.Stats(); s.Staged != 0 || s.FlushMicros != time.Second.Microseconds() {
		t.Fatalf("stats after recovery = %+v, want empty staging and the hung second booked inside AppendFile", s)
	}
	jnl.Close()
	recs, _, err := journal.Read(nil, dir)
	if err != nil || len(recs) != queueCap+1 {
		t.Fatalf("recovered %d records (err %v), want the %d accepted", len(recs), err, queueCap+1)
	}
}

func TestCloseIsIdempotentAndAppendAfterCloseSheds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	jnl := mustOpen(t, t.TempDir(), testOptions(nil))
	appendAll(t, jnl, 0, 1)
	if err := jnl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if jnl.Append(testRec(1)) {
		t.Fatal("Append after Close was accepted")
	}
	if err := jnl.Sync(); err == nil {
		t.Fatal("Sync after Close returned nil")
	}
	if s := jnl.Stats(); s.Shed != 1 || s.Persisted != 1 {
		t.Fatalf("stats = %+v, want the pre-close record persisted and the post-close one shed", s)
	}
}

// TestAppendAfterCloseSheds: appends racing Close are decided under the
// journal's mutex, so each is either accepted — and then committed by the
// writer's last flush — or shed; none is accepted and lost.
func TestAppendAfterCloseSheds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(nil))
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	started := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i == 20 && g == 0 {
					close(started)
				}
				if jnl.Append(testRec(g*1000 + i)) {
					accepted.Add(1)
				} else {
					rejected.Add(1)
				}
			}
		}(g)
	}
	<-started
	jnl.Close()
	wg.Wait()
	if jnl.Append(testRec(9999)) {
		t.Fatal("Append after Close was accepted")
	}
	s := jnl.Stats()
	if int64(s.Appended) != accepted.Load() || int64(s.Shed) != rejected.Load()+1 {
		t.Fatalf("stats = %+v, want %d appended and %d shed", s, accepted.Load(), rejected.Load()+1)
	}
	if s.Persisted != s.Appended || s.Staged != 0 {
		t.Fatalf("stats = %+v: a record accepted before Close was not committed by it", s)
	}
	recs, _, err := journal.Read(nil, dir)
	if err != nil || int64(len(recs)) != accepted.Load() {
		t.Fatalf("read back %d records (err %v), want the %d accepted", len(recs), err, accepted.Load())
	}
}

// TestConcurrentAppendsAtDefaults: 10 000 records from 8 goroutines through a
// journal opened with no options but a fake clock. The writer is woken per
// batch: with the timer never firing, the commits are bounded by the count
// trigger's crossings (one per flushBatch appends) and the final Sync — not by
// the record count — and every record comes back exactly once, each
// goroutine's in the order it appended them.
func TestConcurrentAppendsAtDefaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const goroutines, each = 8, 1250
	dir := t.TempDir()
	jnl := mustOpen(t, dir, journal.Options{Clock: clock.NewFake(epoch)})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := journal.Record{SQL: "q", Generation: uint64(g), LatencyMicros: int64(i)}
				for !jnl.Append(rec) {
					runtime.Gosched() // staging is full: the producers outran the disk
				}
			}
		}(g)
	}
	wg.Wait()
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	s := jnl.Stats()
	if s.Appended != goroutines*each || s.Persisted != s.Appended {
		t.Fatalf("stats = %+v, want %d appended and persisted", s, goroutines*each)
	}
	bound := uint64(goroutines*each/flushBatch) + 1
	t.Logf("%d flushes for %d records (bound %d), %d shed and retried", s.Flushes, s.Appended, bound, s.Shed)
	if s.Flushes > bound {
		t.Errorf("%d flushes, want <= %d: the writer is not committing per batch", s.Flushes, bound)
	}
	jnl.Close()

	recs, _, err := journal.Read(nil, dir)
	if err != nil || len(recs) != goroutines*each {
		t.Fatalf("read back %d records (err %v), want %d", len(recs), err, goroutines*each)
	}
	next := make([]int64, goroutines)
	for _, rec := range recs {
		if rec.LatencyMicros != next[rec.Generation] {
			t.Fatalf("goroutine %d: read back record %d where %d was due", rec.Generation, rec.LatencyMicros, next[rec.Generation])
		}
		next[rec.Generation]++
	}
}

// stepFS hands every commit to the test: AppendFile announces itself on
// entered and writes once the test sends on release, or at once after done.
type stepFS struct {
	store.FS
	entered, release, done chan struct{}
}

func (f stepFS) AppendFile(path string, data []byte) error {
	select {
	case f.entered <- struct{}{}:
		select {
		case <-f.release:
		case <-f.done:
		}
	case <-f.done:
	}
	return f.FS.AppendFile(path, data)
}

// TestRecordWaitsAtMostFlushEveryPlusOneFlush: the timer is re-armed by
// every flush, the count-triggered ones included, so a record staged just
// after a commit began waits that commit out and then one flushEvery, below
// the count trigger and with no Sync to help it. On the fake clock the bound
// has no slack: the timer must still be armed one tick before flushEvery
// after the commit ended, and must have fired at flushEvery.
func TestRecordWaitsAtMostFlushEveryPlusOneFlush(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		rounds   = 3
		oneFlush = 5 * time.Millisecond // fake time a count-triggered commit takes
	)
	fsys := stepFS{FS: store.OSFS(), entered: make(chan struct{}), release: make(chan struct{}), done: make(chan struct{})}
	clk := clock.NewFake(epoch)
	jnl := mustOpen(t, t.TempDir(), testOptions(func(o *journal.Options) {
		o.FS = fsys
		o.Clock = clk
	}))
	t.Cleanup(func() { close(fsys.done) }) // before the Close mustOpen defers, so a failure cannot hang it
	n := 0
	for r := 0; r < rounds; r++ {
		appendAll(t, jnl, n, n+flushBatch)              // reaches flushBatch: a count-triggered commit
		<-fsys.entered                                  // the batch is taken and being written
		appendAll(t, jnl, n+flushBatch, n+flushBatch+1) // staged behind that commit: the timer's to flush
		n += flushBatch + 1
		clk.Advance(oneFlush) // the writer stopped its timer for the commit: nothing fires
		fsys.release <- struct{}{}
		clk.BlockUntil(1) // the commit is done and the writer has armed its timer
		if clk.Advance(flushEvery-time.Nanosecond) != 0 {
			t.Fatalf("round %d: the timer fired before flushEvery had passed since the commit", r)
		}
		if clk.Advance(time.Nanosecond) != 1 {
			t.Fatalf("round %d: the timer had not fired flushEvery after the commit: the record waits longer", r)
		}
		<-fsys.entered // the timer's commit, which nothing but the timer asked for
		fsys.release <- struct{}{}
	}
	if err := jnl.Sync(); err != nil { // nothing is staged: it only waits the last commit out
		t.Fatal(err)
	}
	s := jnl.Stats()
	if s.Persisted != uint64(n) || s.Flushes != 2*rounds || s.FlushMicros != rounds*oneFlush.Microseconds() {
		t.Errorf("stats = %+v, want %d persisted in %d commits and %d µs inside AppendFile", s, n, 2*rounds, rounds*oneFlush.Microseconds())
	}
}

// TestReadSealedReportsReadErrors: a sealed segment retention GC unlinked
// mid-read is skipped, but one that cannot be read is an error — a canary
// derived from what was left would score models on part of the journal.
func TestReadSealedReportsReadErrors(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	for i := 0; i < 2; i++ { // two opens: segments 1 and 2, sealed by the reopen
		jnl := mustOpen(t, dir, testOptions(nil))
		appendAll(t, jnl, 3*i, 3*i+3)
		if err := jnl.Sync(); err != nil {
			t.Fatal(err)
		}
		jnl.Close()
	}
	// Op 1 is the reopen's MkdirAll; op 2, the next commit, crashes the
	// filesystem, and every read after it fails.
	fi := faultinject.NewFS(nil, faultinject.FSConfig{Kind: faultinject.FSCrash, Op: 2})
	jnl := mustOpen(t, dir, testOptions(func(o *journal.Options) { o.FS = fi }))
	if err := os.Remove(filepath.Join(dir, "seg-00000001.qfej")); err != nil {
		t.Fatal(err)
	}
	if recs, err := jnl.ReadSealed(); err != nil || len(recs) != 3 || recs[0].UnixMicros != 4 {
		t.Fatalf("ReadSealed with segment 1 unlinked = %d records (err %v), want segment 2's 3", len(recs), err)
	}
	appendAll(t, jnl, 6, 7)
	if err := jnl.Sync(); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("Sync on the crashing filesystem: %v, want %v", err, faultinject.ErrCrashed)
	}
	if recs, err := jnl.ReadSealed(); !errors.Is(err, faultinject.ErrCrashed) || recs != nil {
		t.Fatalf("ReadSealed over an unreadable segment = %d records, err %v; want no records and %v", len(recs), err, faultinject.ErrCrashed)
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(nil))
	appendAll(t, jnl, 0, 3)
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	seg := filepath.Join(dir, "seg-00000001.qfej")
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// A power loss mid-append: half of one more frame lands behind the
	// committed records.
	torn := segBytes(t, testRec(99))
	if err := store.OSFS().AppendFile(seg, torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}

	jnl2 := mustOpen(t, dir, testOptions(nil))
	s := jnl2.Stats()
	if s.TornTailsRepaired != 1 || s.SegmentsQuarantined != 0 {
		t.Fatalf("recovery stats = %+v, want exactly one torn tail repaired", s)
	}
	recs, err := jnl2.ReadSealed()
	if err != nil || len(recs) != 3 {
		t.Fatalf("ReadSealed = %d records (err %v), want the 3 committed", len(recs), err)
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec, testRec(i)) {
			t.Fatalf("record %d corrupted by repair: %+v", i, rec)
		}
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("repaired segment is %d bytes, want the pre-tear %d", after.Size(), before.Size())
	}
}

func TestRecoveryQuarantinesMidFileCorruption(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(nil))
	appendAll(t, jnl, 0, 3)
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	seg := filepath.Join(dir, "seg-00000001.qfej")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[30] ^= 0x40 // bit rot inside the first frame's payload, frames behind it
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	jnl2 := mustOpen(t, dir, testOptions(nil))
	s := jnl2.Stats()
	if s.SegmentsQuarantined != 1 || s.TornTailsRepaired != 0 {
		t.Fatalf("recovery stats = %+v, want the segment quarantined, not repaired", s)
	}
	if recs, _ := jnl2.ReadSealed(); len(recs) != 0 {
		t.Fatalf("ReadSealed returned %d records from a quarantined segment", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantined-seg-00000001.qfej")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// The burned number stays burned: new traffic lands in segment 2.
	appendAll(t, jnl2, 10, 11)
	if err := jnl2.Sync(); err != nil {
		t.Fatal(err)
	}
	jnl2.Close()
	recs, rep, err := journal.Read(nil, dir)
	if err != nil || len(recs) != 1 || recs[0].UnixMicros != 11 {
		t.Fatalf("Read = %v (report %+v, err %v), want only the post-quarantine record", recs, rep, err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("read report %+v does not count the quarantined segment", rep)
	}
}

func TestRecoverySweepsRepairTemps(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	tmp := filepath.Join(dir, "tmp-seg-00000001.qfej")
	if err := os.WriteFile(tmp, []byte("half a repair"), 0o644); err != nil {
		t.Fatal(err)
	}
	jnl := mustOpen(t, dir, testOptions(nil))
	if s := jnl.Stats(); s.TempSwept != 1 {
		t.Fatalf("stats = %+v, want the leftover repair temp swept", s)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("repair temp still on disk (err %v)", err)
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	for _, name := range []string{"README.txt", "seg-garbage.qfej", "seg-00000000.qfej"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jnl := mustOpen(t, dir, testOptions(nil))
	if s := jnl.Stats(); s.SealedSegments != 0 || s.SegmentsQuarantined != 0 {
		t.Fatalf("foreign files were treated as segments: %+v", s)
	}
	jnl.Close()
	for _, name := range []string{"README.txt", "seg-garbage.qfej", "seg-00000000.qfej"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("foreign file %s was touched: %v", name, err)
		}
	}
}

// TestReadIsTolerantAndReadOnly drives the offline reader over a directory
// holding every damage class at once and proves it salvages what is safe,
// skips what is not, and mutates nothing — cmd/replay points this at live
// daemons' directories.
func TestReadIsTolerantAndReadOnly(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	clean := segBytes(t, testRec(0), testRec(1))
	tornTail := segBytes(t, testRec(2), testRec(3))
	torn := append(append([]byte(nil), tornTail...), segBytes(t, testRec(4))[:10]...)
	corrupt := segBytes(t, testRec(5), testRec(6))
	corrupt[30] ^= 0x40
	files := map[string][]byte{
		"seg-00000001.qfej":             clean,
		"seg-00000002.qfej":             torn,
		"seg-00000003.qfej":             corrupt,
		"quarantined-seg-00000004.qfej": segBytes(t, testRec(7)),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	recs, rep, err := journal.Read(nil, dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want := journal.ReadReport{Segments: 3, CorruptSegments: 1, TornTails: 1, Quarantined: 1, Records: 4}
	if rep != want {
		t.Fatalf("report = %+v, want %+v", rep, want)
	}
	if len(recs) != 4 {
		t.Fatalf("read %d records, want clean pair + torn segment's valid prefix", len(recs))
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec, testRec(i)) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, testRec(i))
		}
	}
	// Strictly read-only: every byte still exactly as laid down.
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !reflect.DeepEqual(got, data) {
			t.Fatalf("Read mutated %s (err %v)", name, err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil || len(names) != len(files) {
		t.Fatalf("Read created files: %d entries, want %d", len(names), len(files))
	}
}

// TestReadCountsUnreadableSegments: a segment the offline reader cannot read
// is skipped and counted, so a report scored on the rest says it is partial.
// Read used to skip it as if retention GC had unlinked it, and report two
// records out of one segment.
func TestReadCountsUnreadableSegments(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	for i, name := range []string{"seg-00000001.qfej", "seg-00000002.qfej"} {
		if err := os.WriteFile(filepath.Join(dir, name), segBytes(t, testRec(2*i), testRec(2*i+1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fi := faultinject.NewFS(nil, faultinject.FSConfig{Kind: faultinject.FSReadError, Op: 1})
	recs, rep, err := journal.Read(fi, dir)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if want := (journal.ReadReport{Segments: 2, Unreadable: 1, Records: 2}); rep != want {
		t.Errorf("report = %+v, want %+v", rep, want)
	}
	if len(recs) != 2 || recs[0].UnixMicros != 3 {
		t.Errorf("read %+v, want segment 2's two records", recs)
	}
}
