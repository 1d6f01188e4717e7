package journal_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qfe/internal/journal"
	"qfe/internal/store"
	"qfe/internal/testutil"
)

// testOptions returns options that make the journal fully deterministic for
// tests: no timer-driven flushes (FlushEvery is an hour, FlushBatch larger
// than any test batch), so the only commits are the ones Sync forces, and
// the only rotations are the ones the options ask for.
func testOptions(mutate func(*journal.Options)) journal.Options {
	opts := journal.Options{
		SegmentBytes: 1 << 30,
		SegmentAge:   -1,
		Retain:       -1,
		Queue:        1024,
		FlushBatch:   4096,
		FlushEvery:   time.Hour,
	}
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
	var rotated []journal.SegmentInfo
	jnl := mustOpen(t, dir, testOptions(func(o *journal.Options) {
		o.SegmentBytes = 1 // every non-empty flush crosses the threshold
		o.Retain = 2
		o.OnRotate = func(seg journal.SegmentInfo) { rotated = append(rotated, seg) }
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
	// OnRotate observed every sealed segment, in order, before GC took any.
	if len(rotated) != 5 {
		t.Fatalf("OnRotate fired %d times, want 5", len(rotated))
	}
	for i, seg := range rotated {
		if seg.Number != uint64(i)+1 || seg.Records != 1 || !seg.Sealed {
			t.Fatalf("rotation %d sealed %+v, want segment #%d with 1 record", i, seg, i+1)
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
	var nowMicros atomic.Int64
	nowMicros.Store(1_000_000)
	jnl := mustOpen(t, t.TempDir(), testOptions(func(o *journal.Options) {
		o.SegmentAge = time.Minute
		o.Now = func() time.Time { return time.UnixMicro(nowMicros.Load()) }
	}))
	appendAll(t, jnl, 0, 1)
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := jnl.Stats(); s.Rotations != 0 {
		t.Fatalf("rotated %d times before the age threshold", s.Rotations)
	}
	nowMicros.Add(2 * time.Minute.Microseconds())
	if err := jnl.Sync(); err != nil { // empty flush; rotation is age-driven
		t.Fatal(err)
	}
	if s := jnl.Stats(); s.Rotations != 1 || s.SealedSegments != 1 {
		t.Fatalf("stats after aging = %+v, want exactly 1 rotation", s)
	}
	// An aged-out EMPTY segment is not sealed — the age clock restarts.
	nowMicros.Add(2 * time.Minute.Microseconds())
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
// a commit, staging takes exactly Queue more records and sheds every append
// past that — none before, none late — without ever waiting on the disk.
func TestAppendShedsInsteadOfBlockingOnWedgedDisk(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const queue, extra = 8, 5
	fsys := &gateFS{FS: store.OSFS(), entered: make(chan struct{}, 16), gate: make(chan struct{})}
	dir := t.TempDir()
	jnl := mustOpen(t, dir, testOptions(func(o *journal.Options) {
		o.Queue = queue
		o.FlushBatch = 1
		o.FS = fsys
	}))
	if !jnl.Append(testRec(0)) {
		t.Fatal("first append shed")
	}
	select { // the writer has taken record 0 and is now stuck inside AppendFile
	case <-fsys.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the wedged disk")
	}
	for i := 1; i <= queue; i++ {
		if !jnl.Append(testRec(i)) {
			t.Fatalf("append %d of %d into empty staging shed early", i, queue)
		}
	}
	if s := jnl.Stats(); s.Staged != queue || s.Shed != 0 {
		t.Fatalf("stats = %+v, want %d staged and none shed", s, queue)
	}
	start := time.Now()
	for i := 0; i < extra; i++ {
		if jnl.Append(testRec(queue + 1 + i)) {
			t.Fatal("append into full staging over a wedged disk was accepted")
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shedding appends took %v; they must not wait on the disk", elapsed)
	}
	if s := jnl.Stats(); s.Shed != extra || s.Appended != queue+1 || s.Staged != queue {
		t.Fatalf("stats = %+v, want exactly the %d appends past Queue shed", s, extra)
	}

	close(fsys.gate) // disk recovers; everything accepted must drain
	if err := jnl.Sync(); err != nil {
		t.Fatalf("Sync after recovery: %v", err)
	}
	if s := jnl.Stats(); s.Staged != 0 || s.FlushMicros <= 0 {
		t.Fatalf("stats after recovery = %+v, want empty staging and time booked inside AppendFile", s)
	}
	jnl.Close()
	recs, _, err := journal.Read(nil, dir)
	if err != nil || len(recs) != queue+1 {
		t.Fatalf("recovered %d records (err %v), want the %d accepted", len(recs), err, queue+1)
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
// journal opened with no options. The writer is woken per batch: the commits
// are bounded by the count trigger's crossings (one per half Queue of
// appends), the timer's firings and the final Sync — not by the record count
// — and every record comes back exactly once, each goroutine's in the order
// it appended them.
func TestConcurrentAppendsAtDefaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		goroutines = 8
		each       = 1250
		threshold  = 512                   // half of the default Queue
		flushEvery = 50 * time.Millisecond // the default
	)
	dir := t.TempDir()
	jnl := mustOpen(t, dir, journal.Options{})
	start := time.Now()
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
	elapsed := time.Since(start)
	s := jnl.Stats()
	if s.Appended != goroutines*each || s.Persisted != s.Appended {
		t.Fatalf("stats = %+v, want %d appended and persisted", s, goroutines*each)
	}
	bound := uint64((goroutines*each+threshold-1)/threshold) + uint64(elapsed/flushEvery) + 1
	t.Logf("%d flushes for %d records in %v (bound %d), %d shed and retried, %d µs inside AppendFile",
		s.Flushes, s.Appended, elapsed, bound, s.Shed, s.FlushMicros)
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

// slowFS announces every AppendFile on entered and then takes at least delay
// over it.
type slowFS struct {
	store.FS
	entered chan struct{}
	delay   time.Duration
}

func (f slowFS) AppendFile(path string, data []byte) error {
	select {
	case f.entered <- struct{}{}:
	default:
	}
	time.Sleep(f.delay)
	return f.FS.AppendFile(path, data)
}

// TestRecordWaitsAtMostFlushEveryPlusOneFlush: the timer is re-armed by
// every flush, the count-triggered ones included, so a record staged just
// after a commit began waits that commit out and then one FlushEvery, below
// the count trigger and with no Sync to help it. The writer's timer is a real
// one (Options.Now stamps records and ages segments, nothing else), so this
// runs on the wall clock, with slack for a loaded box.
func TestRecordWaitsAtMostFlushEveryPlusOneFlush(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const (
		rounds     = 5
		flushEvery = 20 * time.Millisecond
		oneFlush   = 5 * time.Millisecond
		slack      = 500 * time.Millisecond
	)
	fsys := slowFS{FS: store.OSFS(), entered: make(chan struct{}, 1), delay: oneFlush}
	jnl := mustOpen(t, t.TempDir(), testOptions(func(o *journal.Options) {
		o.FlushBatch = 4
		o.FlushEvery = flushEvery
		o.FS = fsys
	}))
	var worst time.Duration
	for n := 0; n < 5*rounds; n += 5 {
		appendAll(t, jnl, n, n+4) // reaches FlushBatch: a count-triggered commit
		select {
		case <-fsys.entered: // the four are taken and being written
		case <-time.After(10 * time.Second):
			t.Fatalf("the count trigger never woke the writer: stats %+v", jnl.Stats())
		}
		start := time.Now()
		appendAll(t, jnl, n+4, n+5) // staged behind that commit: the timer's to flush
		for jnl.Stats().Persisted < uint64(n)+5 {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("record %d still not durable after %v: stats %+v", n+4, time.Since(start), jnl.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		worst = max(worst, time.Since(start))
		<-fsys.entered // the timer's commit, which nothing but the timer asked for
	}
	t.Logf("worst wait %v over %d flushes (FlushEvery %v, one flush >= %v)", worst, jnl.Stats().Flushes, flushEvery, oneFlush)
	if limit := flushEvery + 2*oneFlush + slack; worst > limit {
		t.Errorf("a record waited %v to become durable, want <= %v", worst, limit)
	}
}

// TestFlushBatchOneCommitsEachRecord: at FlushBatch 1 every append wakes the
// writer, so a producer that waits for each record to persist pays exactly
// one fsync per record and never waits for the timer.
func TestFlushBatchOneCommitsEachRecord(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	jnl := mustOpen(t, t.TempDir(), testOptions(func(o *journal.Options) { o.FlushBatch = 1 }))
	const n = 20
	for i := 0; i < n; i++ {
		appendAll(t, jnl, i, i+1)
		for deadline := time.Now().Add(10 * time.Second); jnl.Stats().Persisted < uint64(i)+1; {
			if time.Now().After(deadline) {
				t.Fatalf("record %d never persisted without a Sync or a timer: stats %+v", i, jnl.Stats())
			}
			runtime.Gosched()
		}
	}
	if s := jnl.Stats(); s.Flushes != n {
		t.Errorf("%d flushes for %d records appended one at a time, want one each", s.Flushes, n)
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
