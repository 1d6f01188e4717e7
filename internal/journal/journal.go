// Package journal is the durable query-feedback log of the serving stack: a
// segmented, append-only, CRC-framed record of every served estimate — SQL
// text, estimate, client-reported actual cardinality (with an explicit
// has-actual bit, so a genuine zero-row actual is never confused with "no
// feedback"), latency, model generation, timestamp.
//
// The write path is built for a serving hot path that must never block on
// disk: Append stages the record in a bounded slice under the journal's
// mutex and returns immediately — when queueCap records are already staged
// (the disk is slow, wedged, or gone) records are shed and counted, never
// waited on. A single writer goroutine is woken per batch, not per record: by
// Append when the staging depth reaches flushBatch (the count trigger, there
// so a burst is written out before it sheds) and by a timer flushEvery after
// its last flush (the bound on how long an accepted record waits un-fsynced).
// Either way it takes everything staged, encodes the records by hand into
// QFES frames (the same checksummed envelope the model store uses,
// payload kind PayloadJournal; the bytes are json.Marshal's), and commits them
// with one write and one fsync. The segment rotates on size or age; sealed
// segments beyond the retention horizon are garbage-collected.
//
// Crash recovery follows the store's discipline in miniature. A batch is
// committed iff its AppendFile (write + fsync) returned: a crash mid-append
// leaves a torn tail, which Open truncates away (valid prefix rewritten via
// tmp + rename + dir fsync, so the repair itself is crash-safe) — committed
// records are never lost, torn ones are never resurrected. A segment whose
// frames fail checksum mid-file (bit rot) is quarantined under a
// quarantined-seg- name instead of being deleted or — worse — partially
// trusted. Every filesystem touch goes through store.FS, so the
// fault-injection chaos suite drives append, rotate, and recover through
// crashes, torn writes, ENOSPC, and bit flips deterministically.
package journal

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qfe/internal/clock"
	"qfe/internal/jsonenc"
	"qfe/internal/store"
)

const (
	segPrefix        = "seg-"
	tmpSegPrefix     = "tmp-seg-"
	quarantinePrefix = "quarantined-seg-"
	segSuffix        = ".qfej"

	segmentAge = 15 * time.Minute // a non-empty active segment older than this rotates
	queueCap   = 1024             // records staged for the writer; Append sheds past it
	// flushBatch, the count trigger, is half of queueCap: it exists to write a
	// burst out before it sheds, not to bound the wait; flushEvery does that.
	flushBatch = queueCap / 2
	flushEvery = 50 * time.Millisecond
)

// Record is one served estimate as journaled. The JSON keys are short
// because millions of these land on disk.
type Record struct {
	// UnixMicros is the serving timestamp. Append stamps it when zero.
	UnixMicros int64 `json:"t"`
	// SQL is the query text as served (re-parseable for replay).
	SQL string `json:"sql"`
	// Fingerprint is the featurization equivalence class of SQL, when the
	// writer of the record filed one. The daemon files none: its readers
	// (package replay) compute the class from SQL, so a record without one
	// loses nothing.
	Fingerprint string `json:"fp,omitempty"`
	// Model and Generation identify which registry entry answered.
	Model      string `json:"model,omitempty"`
	Generation uint64 `json:"gen,omitempty"`
	// Estimate is the answer the client received.
	Estimate float64 `json:"est"`
	// Actual is the client-reported true cardinality; meaningful only when
	// HasActual. A journaled Actual of 0 with HasActual set is a genuine
	// empty result, not absent feedback.
	Actual    float64 `json:"actual,omitempty"`
	HasActual bool    `json:"hasActual,omitempty"`
	// LatencyMicros is the server-side estimation latency.
	LatencyMicros int64 `json:"latMicros,omitempty"`
}

// appendRecord appends rec as json.Marshal renders it — field order,
// omitempty, number and string formatting — and reports true; for a record
// json.Marshal refuses (a NaN or infinite estimate or actual) it reports
// false, and what it appended is not to be used.
func appendRecord(dst []byte, rec *Record) ([]byte, bool) {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, rec.UnixMicros, 10)
	dst = append(dst, `,"sql":`...)
	dst = jsonenc.String(dst, rec.SQL)
	if rec.Fingerprint != "" {
		dst = append(dst, `,"fp":`...)
		dst = jsonenc.String(dst, rec.Fingerprint)
	}
	if rec.Model != "" {
		dst = append(dst, `,"model":`...)
		dst = jsonenc.String(dst, rec.Model)
	}
	if rec.Generation != 0 {
		dst = append(dst, `,"gen":`...)
		dst = strconv.AppendUint(dst, rec.Generation, 10)
	}
	dst = append(dst, `,"est":`...)
	dst = jsonenc.Float(dst, rec.Estimate)
	ok := finite(rec.Estimate)
	if rec.Actual != 0 {
		dst = append(dst, `,"actual":`...)
		dst = jsonenc.Float(dst, rec.Actual)
		ok = ok && finite(rec.Actual)
	}
	if rec.HasActual {
		dst = append(dst, `,"hasActual":true`...)
	}
	if rec.LatencyMicros != 0 {
		dst = append(dst, `,"latMicros":`...)
		dst = strconv.AppendInt(dst, rec.LatencyMicros, 10)
	}
	return append(dst, '}'), ok
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// SegmentInfo describes one on-disk segment.
type SegmentInfo struct {
	Number          uint64 `json:"number"`
	Path            string `json:"path"`
	Bytes           int64  `json:"bytes"`
	Records         int    `json:"records"`
	FirstUnixMicros int64  `json:"firstUnixMicros,omitempty"`
	LastUnixMicros  int64  `json:"lastUnixMicros,omitempty"`
	Sealed          bool   `json:"sealed"`
}

// Stats are the journal's cumulative counters, served under /v1/journal and
// merged into /metrics as journal_*.
type Stats struct {
	Appended    uint64 `json:"appended"`  // accepted into staging
	Shed        uint64 `json:"shed"`      // rejected without blocking (staging full / closed)
	Persisted   uint64 `json:"persisted"` // durably committed (their batch fsync returned)
	Dropped     uint64 `json:"dropped"`   // lost to a failed flush (ENOSPC, I/O error) or unencodable (NaN, ±Inf)
	Staged      int    `json:"staged"`    // accepted, not yet taken by the writer
	Flushes     uint64 `json:"flushes"`
	FlushMicros int64  `json:"flushMicros"` // cumulative time inside AppendFile (write + fsync)
	FlushErrors uint64 `json:"flushErrors"`
	Rotations   uint64 `json:"rotations"`
	GCRemoved   int    `json:"gcRemoved"` // sealed segments removed by retention GC

	// Recovery counters, set by Open.
	TornTailsRepaired   int `json:"tornTailsRepaired"`
	SegmentsQuarantined int `json:"segmentsQuarantined"`
	TempSwept           int `json:"tempSwept"`

	SealedSegments int   `json:"sealedSegments"`
	ActiveRecords  int   `json:"activeRecords"`
	ActiveBytes    int64 `json:"activeBytes"`
}

// Options configures a Journal.
type Options struct {
	// SegmentBytes rotates the active segment once it reaches this size.
	// 0 means the default 4 MiB.
	SegmentBytes int64
	// Retain is how many sealed segments survive retention GC. 0 means the
	// default 8; negative keeps all.
	Retain int
	// FS overrides the filesystem (fault injection); nil means the real one.
	FS store.FS
	// Clock is the journal's only source of time; nil means clock.Real.
	Clock clock.Clock
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Retain == 0 {
		o.Retain = 8
	}
	if o.FS == nil {
		o.FS = store.OSFS()
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

// Journal is an open feedback journal. Append is safe for concurrent use
// and never blocks on the disk; one background writer owns the active
// segment. Close flushes and stops the writer.
type Journal struct {
	dir  string
	fs   store.FS
	opts Options

	wake chan struct{} // 1-buffered: staging reached flushBatch
	sync chan chan error
	quit chan struct{}
	done chan struct{}

	// Writer goroutine only: the batch being committed, its frames, and one
	// record's payload. batch and staged swap backing arrays at every flush.
	batch   []Record
	buf     []byte
	payload []byte

	mu          sync.Mutex
	staged      []Record // accepted, not yet taken by the writer; len <= queueCap
	closed      bool
	stats       Stats
	sealed      []SegmentInfo // ascending by number
	active      SegmentInfo
	activeBorn  time.Time
	activeDirty bool // a failed flush may have left a torn tail
	nextSeg     uint64
}

// Open recovers dir (creating it if missing) and starts the writer. Torn
// tails are truncated, corrupt segments quarantined, leftover repair temps
// swept; appending always starts on a fresh segment so the recovered ones
// are immutable from here on.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	j := &Journal{
		dir:  dir,
		fs:   opts.FS,
		opts: opts,
		wake: make(chan struct{}, 1),
		sync: make(chan chan error),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := j.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	if err := j.recover(); err != nil {
		return nil, err
	}
	j.activeBorn = j.opts.Clock.Now()
	j.active = SegmentInfo{Number: j.nextSeg, Path: j.segPath(j.nextSeg)}
	j.nextSeg++
	go j.writer(j.opts.Clock.NewTimer(flushEvery)) // armed before Open returns, for a fake clock to fire
	return j, nil
}

// recover scans dir, sweeps temps, truncates torn tails, quarantines
// corrupt segments, and leaves j.sealed holding every readable segment.
func (j *Journal) recover() error {
	names, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: scan %s: %w", j.dir, err)
	}
	j.nextSeg = 1
	type cand struct {
		n    uint64
		name string
	}
	var cands []cand
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, tmpSegPrefix):
			// A crash mid-repair left this; the original segment (torn tail
			// and all) is still under its seg- name and will be re-repaired.
			if err := j.fs.RemoveAll(filepath.Join(j.dir, name)); err != nil {
				return fmt.Errorf("journal: sweep %s: %w", name, err)
			}
			j.stats.TempSwept++
		case strings.HasPrefix(name, quarantinePrefix):
			j.stats.SegmentsQuarantined++
			if n, ok := parseSegNumber(name, quarantinePrefix); ok {
				j.bumpNext(n)
			}
		case strings.HasPrefix(name, segPrefix):
			n, ok := parseSegNumber(name, segPrefix)
			if !ok {
				continue
			}
			j.bumpNext(n)
			cands = append(cands, cand{n: n, name: name})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].n < cands[b].n })
	for _, c := range cands {
		path := filepath.Join(j.dir, c.name)
		scan, err := scanSegment(j.fs, path)
		if err != nil {
			return fmt.Errorf("journal: read %s: %w", c.name, err)
		}
		if scan.corrupt {
			// Mid-file corruption: nothing past the bad frame can be
			// trusted, and silently truncating there would discard records
			// that were committed. Keep the whole segment as evidence.
			to := filepath.Join(j.dir, fmt.Sprintf("%s%08d%s", quarantinePrefix, c.n, segSuffix))
			if err := j.fs.Rename(path, to); err != nil {
				return fmt.Errorf("journal: quarantine %s: %w", c.name, err)
			}
			j.fs.SyncDir(j.dir) //nolint:errcheck // rename is visible either way
			j.stats.SegmentsQuarantined++
			continue
		}
		if scan.truncated {
			if err := j.truncateTo(path, scan.validPrefix()); err != nil {
				return err
			}
			j.stats.TornTailsRepaired++
		}
		if len(scan.records) == 0 {
			// Nothing committed survived (e.g. the only batch tore at byte
			// zero): drop the empty shell, keep the number burned.
			if err := j.fs.RemoveAll(path); err != nil {
				return fmt.Errorf("journal: remove empty %s: %w", c.name, err)
			}
			continue
		}
		j.sealed = append(j.sealed, scan.info(c.n, path, true))
	}
	j.stats.SealedSegments = len(j.sealed)
	return nil
}

// truncateTo rewrites path to hold exactly prefix, crash-safely: the valid
// bytes land under a temp name, the rename is the commit point, and a crash
// anywhere re-runs the same repair on next Open.
func (j *Journal) truncateTo(path string, prefix []byte) error {
	tmp := filepath.Join(j.dir, tmpSegPrefix+filepath.Base(path))
	if err := j.fs.WriteFile(tmp, prefix); err != nil {
		return fmt.Errorf("journal: write repaired %s: %w", filepath.Base(path), err)
	}
	if err := j.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: commit repaired %s: %w", filepath.Base(path), err)
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		return fmt.Errorf("journal: sync after repairing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// Append offers one record to the journal and returns whether it was
// accepted. It NEVER blocks: full staging (slow or wedged disk) or a closed
// journal sheds the record and counts it, both decided under the mutex the
// counters already need. Acceptance means "staged", not "durable" —
// durability follows within flushEvery if the disk cooperates.
func (j *Journal) Append(rec Record) bool {
	if rec.UnixMicros == 0 {
		rec.UnixMicros = j.opts.Clock.Now().UnixMicro()
	}
	j.mu.Lock()
	if j.closed || len(j.staged) >= queueCap {
		j.stats.Shed++
		j.mu.Unlock()
		return false
	}
	j.staged = append(j.staged, rec)
	j.stats.Appended++
	wake := len(j.staged) == flushBatch
	j.mu.Unlock()
	if wake {
		select {
		case j.wake <- struct{}{}:
		default: // a wake is already pending; its flush takes these too
		}
	}
	return true
}

// Sync flushes everything staged at the moment of the call and returns the
// flush error, if any. Tests and shutdown paths use it; the hot path never
// does.
func (j *Journal) Sync() error {
	ack := make(chan error, 1)
	select {
	case j.sync <- ack:
		return <-ack
	case <-j.done:
		return fmt.Errorf("journal: closed")
	}
}

// Close flushes staged records, stops the writer, and returns. Idempotent;
// Append after Close sheds.
func (j *Journal) Close() error {
	j.mu.Lock()
	if !j.closed {
		j.closed = true // nothing is staged past this point, so the writer's last flush takes all
		close(j.quit)
	}
	j.mu.Unlock()
	<-j.done
	return nil
}

// Stats returns a snapshot of the counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.Staged = len(j.staged)
	s.SealedSegments = len(j.sealed)
	s.ActiveRecords = j.active.Records
	s.ActiveBytes = j.active.Bytes
	return s
}

// Segments returns the sealed segments (ascending) plus the active one.
func (j *Journal) Segments() []SegmentInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]SegmentInfo, 0, len(j.sealed)+1)
	out = append(out, j.sealed...)
	active := j.active
	out = append(out, active)
	return out
}

// ReadSealed returns every record in the sealed segments, oldest first.
// Sealed segments are immutable (only retention GC unlinks them, and a
// segment GC'd mid-read is simply skipped), so this is safe concurrently
// with serving. Any other read error is returned, never a partial journal.
func (j *Journal) ReadSealed() ([]Record, error) {
	j.mu.Lock()
	sealed := append([]SegmentInfo(nil), j.sealed...)
	j.mu.Unlock()
	var out []Record
	for _, seg := range sealed {
		scan, err := scanSegment(j.fs, seg.Path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // GC won the race; the records are gone by policy
		}
		if err != nil {
			return nil, fmt.Errorf("journal: read %s: %w", filepath.Base(seg.Path), err)
		}
		out = append(out, scan.records...)
	}
	return out, nil
}

// ---- writer goroutine ----

func (j *Journal) writer(timer clock.Timer) {
	defer close(j.done)
	for {
		var ack chan error
		select {
		case <-j.wake:
		case <-timer.C():
		case ack = <-j.sync:
		case <-j.quit:
			timer.Stop()
			j.flush() //nolint:errcheck // counted in FlushErrors
			return
		}
		// The timer bounds the wait since the last flush: every flush stops
		// it and arms a new one, before Sync is answered, once the commit is
		// done. Under a steady count trigger it never fires.
		timer.Stop()
		err := j.flush()
		timer = j.opts.Clock.NewTimer(flushEvery)
		if ack != nil {
			ack <- err
		}
	}
}

// flush commits everything staged with one AppendFile and returns its error
// (which Sync reports and every other caller leaves to the counters).
func (j *Journal) flush() error {
	// Rotate FIRST when a failed flush dirtied the active segment:
	// appending frames behind a torn one would make the whole segment
	// scan as corrupt and cost the committed prefix its recovery.
	j.maybeRotate()
	j.mu.Lock()
	j.batch, j.staged = j.staged, j.batch[:0]
	j.mu.Unlock()
	if len(j.batch) == 0 {
		return nil
	}
	// Frame every record json.Marshal would encode, and compact the batch
	// to them in place: those are the records the commit puts on disk.
	j.buf = j.buf[:0]
	framed := j.batch[:0]
	for i := range j.batch {
		payload, ok := appendRecord(j.payload[:0], &j.batch[i])
		j.payload = payload
		if !ok {
			continue
		}
		j.buf = store.AppendFrame(j.buf, store.PayloadJournal, payload)
		framed = append(framed, j.batch[i])
	}
	start := j.opts.Clock.Now()
	err := j.fs.AppendFile(j.activePath(), j.buf)
	j.noteFlush(framed, len(j.batch)-len(framed), int64(len(j.buf)), j.opts.Clock.Now().Sub(start), err)
	clear(j.batch) // the array is the next staging area: do not pin the texts
	j.maybeRotate()
	if err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	return nil
}

// noteFlush books one commit attempt of the framed records (unencodable ones
// are dropped and counted as such). A failed append may have torn the active
// segment's tail, so the segment is marked dirty and the next maybeRotate
// seals it — appending more frames after a torn one would make the committed
// prefix unreadable.
func (j *Journal) noteFlush(framed []Record, unencodable int, bytes int64, took time.Duration, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats.Flushes++
	j.stats.FlushMicros += took.Microseconds()
	j.stats.Dropped += uint64(unencodable)
	if err != nil {
		j.stats.FlushErrors++
		j.stats.Dropped += uint64(len(framed))
		j.activeDirty = true
		return
	}
	if len(framed) == 0 {
		return
	}
	j.stats.Persisted += uint64(len(framed))
	j.active.Records += len(framed)
	j.active.Bytes += bytes
	if j.active.FirstUnixMicros == 0 {
		j.active.FirstUnixMicros = framed[0].UnixMicros
	}
	j.active.LastUnixMicros = framed[len(framed)-1].UnixMicros
}

// maybeRotate seals the active segment when it crossed the size threshold,
// outlived the age threshold, or took a failed (possibly tearing) append.
// Called from the writer goroutine only.
func (j *Journal) maybeRotate() {
	j.mu.Lock()
	size := j.active.Bytes
	records := j.active.Records
	dirty := j.activeDirty
	age := j.opts.Clock.Now().Sub(j.activeBorn)
	j.mu.Unlock()

	if !(dirty || size >= j.opts.SegmentBytes || (age >= segmentAge && records > 0)) {
		return
	}
	if records == 0 && !dirty {
		// Nothing on disk yet: restart the age clock instead of sealing air.
		j.mu.Lock()
		j.activeBorn = j.opts.Clock.Now()
		j.mu.Unlock()
		return
	}

	j.mu.Lock()
	sealedInfo := j.active
	sealedInfo.Sealed = true
	if records > 0 {
		j.sealed = append(j.sealed, sealedInfo)
	}
	j.stats.Rotations++
	j.active = SegmentInfo{Number: j.nextSeg, Path: j.segPath(j.nextSeg)}
	j.nextSeg++
	j.activeBorn = j.opts.Clock.Now()
	j.activeDirty = false
	j.mu.Unlock()

	if records == 0 {
		// The segment holds nothing but the torn tail of a failed flush.
		// Delete the shell instead of tracking it: retention GC must never
		// count garbage against the horizon and evict a real segment for it.
		// Best-effort — recovery truncates and removes leftovers anyway.
		j.fs.RemoveAll(sealedInfo.Path) //nolint:errcheck
	}
	j.gc()
}

// gc removes sealed segments beyond the retention horizon, oldest first.
// Called from the writer goroutine only.
func (j *Journal) gc() {
	if j.opts.Retain < 0 {
		return
	}
	j.mu.Lock()
	excess := len(j.sealed) - j.opts.Retain
	var victims []SegmentInfo
	if excess > 0 {
		victims = append(victims, j.sealed[:excess]...)
	}
	j.mu.Unlock()
	removed := 0
	for _, v := range victims {
		if err := j.fs.RemoveAll(v.Path); err != nil {
			break // keep the prefix intact; retried on the next rotation
		}
		removed++
	}
	if removed > 0 {
		j.mu.Lock()
		j.sealed = append([]SegmentInfo(nil), j.sealed[removed:]...)
		j.stats.GCRemoved += removed
		j.mu.Unlock()
	}
}

func (j *Journal) activePath() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.active.Path
}

func (j *Journal) segPath(n uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix))
}

func (j *Journal) bumpNext(n uint64) {
	if n >= j.nextSeg {
		j.nextSeg = n + 1
	}
}

// parseSegNumber extracts the segment number, in (0, 2^62], from
// "<prefix>NNNNNNNN.qfej"; zero-padded and unpadded forms both parse.
func parseSegNumber(name, prefix string) (uint64, bool) {
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), segSuffix), 10, 64)
	if err != nil || n == 0 || n > 1<<62 {
		return 0, false
	}
	return n, true
}
