// Package store is the crash-safe snapshot store for trained estimators: a
// generation-numbered directory layout in which a model snapshot becomes
// visible only through an atomic rename, is checksummed inside a versioned
// envelope, and is never modified after publication. The write protocol is
//
//	tmp-gen-N/snapshot.qfes   written + fsync'd   (CRC-framed envelope)
//	tmp-gen-N/MANIFEST.json   written + fsync'd   (CRC-framed metadata)
//	fsync(tmp-gen-N)
//	rename(tmp-gen-N → gen-N)                     (the commit point)
//	fsync(root)
//
// so a crash at any step leaves either the previous generations untouched
// (rename not reached) or a fully durable new generation (rename reached).
// Open recovers by scanning generations newest-first and returning a store
// whose Latest is the newest generation that parses, frames, and checksums
// correctly; torn temp directories are swept, corrupt generations are
// skipped (and counted), and generation numbers are never reused so a
// rolled-back or quarantined generation can never be confused with a fresh
// publish. All filesystem access goes through the FS interface, which the
// chaos suite replaces with a deterministic fault injector.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Envelope framing: a fixed header in front of the payload bytes.
//
//	magic   "QFES"            (4 bytes)
//	version uint32 LE         (envelopeVersion)
//	kind    uint32 LE         (payload kind; version >= 2 only)
//	length  uint64 LE         (payload byte count)
//	crc32c  uint32 LE         (Castagnoli CRC of the payload)
//	payload length bytes
//
// Version 1 envelopes (written before payload kinds existed) carry no kind
// field and are read as PayloadSnapshot, so stores written by older builds
// keep recovering. The kind keeps durable artifact classes from ever being
// confused for each other, even if a file is renamed by hand: only a
// snapshot can be promoted as a generation.
const (
	envelopeMagic   = "QFES"
	envelopeVersion = 2
	headerSize      = 4 + 4 + 4 + 8 + 4
	headerSizeV1    = 4 + 4 + 8 + 4
)

// Payload kinds carried in the version-2 envelope header.
const (
	// PayloadSnapshot frames a published model snapshot (or its manifest).
	PayloadSnapshot uint32 = 0
	// Kind 1 framed a resumable training checkpoint. Nothing writes one any
	// more; the number stays reserved so that a checkpoint file an older
	// build left behind, renamed into a generation, is refused.

	// PayloadJournal frames one feedback-journal record (internal/journal).
	// Journal segments are a concatenation of these frames, so a segment can
	// never be confused with a snapshot even if renamed.
	PayloadJournal uint32 = 2
)

const (
	snapshotFile = "snapshot.qfes"
	manifestFile = "MANIFEST.json"

	genPrefix        = "gen-"
	tmpPrefix        = "tmp-gen-"
	quarantinePrefix = "quarantined-gen-"
	// Training checkpoints of older builds: committed (ckpt-<name>) and
	// in flight (tmp-ckpt-<name>). Open removes both.
	ckptPrefix    = "ckpt-"
	tmpCkptPrefix = "tmp-ckpt-"

	// manifestFormat guards MANIFEST.json compatibility.
	manifestFormat = 1

	retain = 5 // newest valid generations the GC after each successful Put keeps
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrUnknownGeneration reports an operation on a generation number that is
// not in the valid set — never published, already quarantined, or GC'd.
var ErrUnknownGeneration = errors.New("store: unknown generation")

// ErrTruncatedFrame reports a frame cut short by the end of its buffer: the
// header or payload extends past the available bytes. For a sequential
// reader (the feedback journal) this is the torn-tail signal — everything
// before the truncated frame is intact, the truncated frame itself was
// never committed — as opposed to the corruption errors (bad magic, CRC
// mismatch), after which nothing downstream can be trusted.
var ErrTruncatedFrame = errors.New("store: frame truncated")

// Manifest is the per-generation metadata, written last inside the temp
// directory so a generation directory always carries a complete manifest. It
// says nothing about the model: what kind of snapshot the payload is, the
// decoder that reads it decides. Manifests of older builds carry a "kind"
// field; it is ignored.
type Manifest struct {
	Format       int    `json:"format"`
	Generation   uint64 `json:"generation"`
	Name         string `json:"name"` // model name the snapshot was published under
	CreatedUnix  int64  `json:"createdUnix"`
	PayloadBytes int    `json:"payloadBytes"`
	CRC32        uint32 `json:"crc32"`
	Note         string `json:"note,omitempty"` // e.g. the canary verdict that admitted it
}

// Generation is one recoverable snapshot.
type Generation struct {
	Number   uint64
	Manifest Manifest
}

// RecoveryReport summarizes what Open found.
type RecoveryReport struct {
	Valid       int // generations that passed framing + checksum
	Corrupt     int // generation directories rejected (torn, mismatched, bit-rotted)
	Quarantined int // generations previously quarantined, skipped
	TempSwept   int // leftover tmp- directories and older builds' checkpoint files removed
}

// Options configures a store.
type Options struct {
	// FS overrides the filesystem (fault injection); nil means the real one.
	FS FS
}

// Store is a handle on one store directory. It is safe for concurrent use;
// writers serialize internally.
type Store struct {
	dir string
	fs  FS

	mu     sync.Mutex
	gens   []Generation // valid generations, ascending by number
	next   uint64       // next generation number (max ever seen + 1)
	report RecoveryReport
}

// Open scans dir (creating it if missing), sweeps torn temp directories,
// validates every generation newest-first, and returns a store whose
// Latest is the newest valid generation. A directory full of corrupt
// generations still opens — with no valid generations — so a daemon can
// fall back to retraining instead of refusing to start.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	s := &Store{dir: dir, fs: fsys, next: 1}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	type candidate struct {
		n    uint64
		name string
	}
	var cands []candidate
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, tmpCkptPrefix), strings.HasPrefix(name, ckptPrefix):
			// A training checkpoint an older build's retrainer wrote, or its
			// torn write: nothing reads either any more.
			if err := fsys.RemoveAll(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("store: sweep %s: %w", name, err)
			}
			s.report.TempSwept++
		case strings.HasPrefix(name, tmpPrefix):
			// A crash mid-Put left this behind; it never became visible.
			if err := fsys.RemoveAll(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("store: sweep %s: %w", name, err)
			}
			s.report.TempSwept++
			if n, ok := parseGenNumber(name, tmpPrefix); ok {
				s.bumpNext(n)
			}
		case strings.HasPrefix(name, quarantinePrefix):
			s.report.Quarantined++
			if n, ok := parseGenNumber(name, quarantinePrefix); ok {
				s.bumpNext(n)
			}
		case strings.HasPrefix(name, genPrefix):
			n, ok := parseGenNumber(name, genPrefix)
			if !ok {
				continue
			}
			s.bumpNext(n)
			cands = append(cands, candidate{n: n, name: name})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].n < cands[j].n })
	for _, c := range cands {
		man, err := s.validate(c.n, filepath.Join(dir, c.name))
		if err != nil {
			s.report.Corrupt++
			continue
		}
		s.gens = append(s.gens, Generation{Number: c.n, Manifest: man})
		s.report.Valid++
	}
	return s, nil
}

// Recovery returns what Open found.
func (s *Store) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Latest returns the newest valid generation, if any.
func (s *Store) Latest() (Generation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.gens) == 0 {
		return Generation{}, false
	}
	return s.gens[len(s.gens)-1], true
}

// Generations returns the valid generations in ascending order.
func (s *Store) Generations() []Generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Generation, len(s.gens))
	copy(out, s.gens)
	return out
}

// Put durably publishes payload as a new generation and returns it. On any
// error nothing is published: the previous Latest is unchanged and the torn
// temp directory (if one survived) is swept by the next Open. After a
// successful publish, generations beyond the retention horizon are removed
// best-effort.
func (s *Store) Put(name, note string, payload []byte) (Generation, error) {
	if len(payload) == 0 {
		return Generation{}, fmt.Errorf("store: refusing to publish an empty snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next
	man := Manifest{
		Format:       manifestFormat,
		Generation:   n,
		Name:         name,
		CreatedUnix:  time.Now().Unix(),
		PayloadBytes: len(payload),
		CRC32:        crc32.Checksum(payload, crcTable),
		Note:         note,
	}
	manBytes, err := json.Marshal(man)
	if err != nil {
		return Generation{}, fmt.Errorf("store: encode manifest: %w", err)
	}
	manBytes = frame(manBytes) // the manifest gets the same CRC envelope
	tmp := filepath.Join(s.dir, fmt.Sprintf("%s%08d", tmpPrefix, n))
	final := filepath.Join(s.dir, genDirName(n))
	// A leftover tmp dir with this number means a previous in-process Put
	// failed before Open could sweep; clear it so the rename lands clean.
	if err := s.fs.RemoveAll(tmp); err != nil {
		return Generation{}, fmt.Errorf("store: clear stale temp: %w", err)
	}
	if err := s.fs.MkdirAll(tmp); err != nil {
		return Generation{}, fmt.Errorf("store: temp dir: %w", err)
	}
	fail := func(step string, err error) (Generation, error) {
		// Best-effort cleanup; a crashed filesystem leaves the tmp dir for
		// the next Open to sweep.
		s.fs.RemoveAll(tmp) //nolint:errcheck
		return Generation{}, fmt.Errorf("store: %s generation %d: %w", step, n, err)
	}
	if err := s.fs.WriteFile(filepath.Join(tmp, snapshotFile), frame(payload)); err != nil {
		return fail("write snapshot for", err)
	}
	if err := s.fs.WriteFile(filepath.Join(tmp, manifestFile), manBytes); err != nil {
		return fail("write manifest for", err)
	}
	if err := s.fs.SyncDir(tmp); err != nil {
		return fail("sync temp dir for", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return fail("publish", err)
	}
	// The rename reached the filesystem: gen-N exists on disk from here on,
	// so its number is burned whatever happens next — a retry must never
	// reuse it (the Rename onto the existing directory would fail forever).
	s.next = n + 1
	if err := s.fs.SyncDir(s.dir); err != nil {
		// The rename happened; whether it is durable is now up to the disk.
		// Report the error — callers must not ack an unsynced publish — but
		// do not remove the renamed directory: it may well survive, and
		// recovery validates it like any other. It stays out of the in-memory
		// valid set; a retry publishes under a fresh number.
		return Generation{}, fmt.Errorf("store: sync root after publishing generation %d: %w", n, err)
	}
	gen := Generation{Number: n, Manifest: man}
	s.gens = append(s.gens, gen)
	s.gc()
	return gen, nil
}

// Read returns the payload and manifest of generation number, re-verifying
// the envelope checksum so bit rot after Open is still caught at the last
// moment before a model built from the bytes could serve traffic.
func (s *Store) Read(number uint64) ([]byte, Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.gens {
		if g.Number != number {
			continue
		}
		payload, err := s.readVerified(filepath.Join(s.dir, genDirName(number)), g.Manifest)
		if err != nil {
			return nil, Manifest{}, err
		}
		return payload, g.Manifest, nil
	}
	return nil, Manifest{}, fmt.Errorf("%w: no valid generation %d to read", ErrUnknownGeneration, number)
}

// Quarantine renames generation number to a quarantined-gen directory so no
// future Open or rollback will ever select it again, and drops it from the
// valid set. Quarantining an unknown generation returns an error wrapping
// ErrUnknownGeneration.
func (s *Store) Quarantine(number uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := -1
	for i, g := range s.gens {
		if g.Number == number {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: no valid generation %d to quarantine", ErrUnknownGeneration, number)
	}
	from := filepath.Join(s.dir, genDirName(number))
	to := filepath.Join(s.dir, fmt.Sprintf("%s%08d", quarantinePrefix, number))
	if err := s.fs.Rename(from, to); err != nil {
		return fmt.Errorf("store: quarantine generation %d: %w", number, err)
	}
	s.fs.SyncDir(s.dir) //nolint:errcheck // rename is visible either way
	s.gens = append(s.gens[:idx], s.gens[idx+1:]...)
	return nil
}

// gc removes generations beyond the retention horizon (called with s.mu
// held, best-effort: a failed removal is retried implicitly next time).
func (s *Store) gc() {
	if len(s.gens) <= retain {
		return
	}
	cut := len(s.gens) - retain
	for _, g := range s.gens[:cut] {
		if err := s.fs.RemoveAll(filepath.Join(s.dir, genDirName(g.Number))); err != nil {
			return // keep the suffix intact; retry on a later Put
		}
	}
	s.gens = append([]Generation(nil), s.gens[cut:]...)
}

// validate checks one generation directory end to end: manifest parse,
// number match, envelope framing, and payload checksum (against both the
// envelope and the manifest).
func (s *Store) validate(n uint64, dir string) (Manifest, error) {
	raw, err := s.fs.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: read manifest: %w", err)
	}
	manBytes, _, err := unframe(raw)
	if err != nil {
		return Manifest{}, fmt.Errorf("store: manifest envelope: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(manBytes, &man); err != nil {
		return Manifest{}, fmt.Errorf("store: parse manifest: %w", err)
	}
	if man.Format != manifestFormat {
		return Manifest{}, fmt.Errorf("store: manifest format %d (want %d)", man.Format, manifestFormat)
	}
	if man.Generation != n {
		return Manifest{}, fmt.Errorf("store: manifest generation %d in directory %d", man.Generation, n)
	}
	if _, err := s.readVerified(dir, man); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// readVerified loads dir's snapshot envelope and returns the payload iff
// framing and checksums hold.
func (s *Store) readVerified(dir string, man Manifest) ([]byte, error) {
	raw, err := s.fs.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	payload, crc, err := unframe(raw)
	if err != nil {
		return nil, err
	}
	if len(payload) != man.PayloadBytes {
		return nil, fmt.Errorf("store: snapshot is %d payload bytes, manifest says %d", len(payload), man.PayloadBytes)
	}
	if crc != man.CRC32 {
		return nil, fmt.Errorf("store: snapshot CRC %08x, manifest says %08x", crc, man.CRC32)
	}
	return payload, nil
}

// frame wraps payload in the checksummed snapshot envelope.
func frame(payload []byte) []byte { return frameKind(PayloadSnapshot, payload) }

// frameKind wraps payload in a version-2 envelope carrying the given kind.
func frameKind(kind uint32, payload []byte) []byte {
	return AppendFrame(make([]byte, 0, headerSize+len(payload)), kind, payload)
}

// AppendFrame appends one version-2 QFES envelope (header + payload) to dst
// and returns the extended slice. Frames written this way back-to-back form
// a valid sequential stream for NextFrame — the feedback journal's segment
// format.
func AppendFrame(dst []byte, kind uint32, payload []byte) []byte {
	var hdr [headerSize]byte
	copy(hdr[0:4], envelopeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], envelopeVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], kind)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// NextFrame parses the first version-2 envelope in buf, requires its payload
// kind to be wantKind, and returns the payload together with the bytes that
// follow the frame. A frame cut short by the end of buf — header or payload
// — returns an error wrapping ErrTruncatedFrame so sequential readers can
// treat it as a torn tail; every other failure (bad magic, foreign version
// or kind, checksum mismatch, or an absurd declared length) means the bytes
// at the front of buf are not a frame prefix at all.
func NextFrame(buf []byte, wantKind uint32) (payload, rest []byte, err error) {
	if len(buf) >= 4 && string(buf[0:4]) != envelopeMagic {
		return nil, nil, fmt.Errorf("store: bad envelope magic %q", buf[0:4])
	}
	if len(buf) < headerSize {
		return nil, nil, fmt.Errorf("%w: %d header bytes of %d", ErrTruncatedFrame, len(buf), headerSize)
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != envelopeVersion {
		return nil, nil, fmt.Errorf("store: unsupported envelope version %d (want %d)", v, envelopeVersion)
	}
	if kind := binary.LittleEndian.Uint32(buf[8:12]); kind != wantKind {
		return nil, nil, fmt.Errorf("store: envelope carries payload kind %d, want %d", kind, wantKind)
	}
	length := binary.LittleEndian.Uint64(buf[12:20])
	if length > maxFramePayload {
		// A declared length this large is bit rot in the header, not a real
		// record: treating it as truncation would make a torn-tail truncator
		// discard arbitrarily much committed data behind it.
		return nil, nil, fmt.Errorf("store: envelope declares %d payload bytes (limit %d)", length, int(maxFramePayload))
	}
	if uint64(len(buf)-headerSize) < length {
		return nil, nil, fmt.Errorf("%w: %d payload bytes of %d", ErrTruncatedFrame, len(buf)-headerSize, length)
	}
	payload = buf[headerSize : headerSize+length]
	want := binary.LittleEndian.Uint32(buf[20:24])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, nil, fmt.Errorf("store: envelope checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, buf[headerSize+length:], nil
}

// maxFramePayload bounds a single sequential frame's declared payload (64
// MiB) — far above any journal record, far below anything that could make a
// corrupt length field look like truncation.
const maxFramePayload = 64 << 20

// unframe validates a snapshot envelope and returns the payload and its
// stored CRC.
func unframe(raw []byte) ([]byte, uint32, error) {
	return unframeKind(raw, PayloadSnapshot)
}

// unframeKind validates the envelope, requires its payload kind to be
// wantKind, and returns the payload and its stored CRC. Version-1 envelopes
// carry no kind field and are read as PayloadSnapshot.
func unframeKind(raw []byte, wantKind uint32) ([]byte, uint32, error) {
	if len(raw) < headerSizeV1 {
		return nil, 0, fmt.Errorf("store: envelope truncated at %d bytes (smallest header is %d)", len(raw), headerSizeV1)
	}
	if string(raw[0:4]) != envelopeMagic {
		return nil, 0, fmt.Errorf("store: bad envelope magic %q", raw[0:4])
	}
	var (
		kind    uint32
		length  uint64
		want    uint32
		payload []byte
	)
	switch v := binary.LittleEndian.Uint32(raw[4:8]); v {
	case 1:
		kind = PayloadSnapshot
		length = binary.LittleEndian.Uint64(raw[8:16])
		want = binary.LittleEndian.Uint32(raw[16:20])
		payload = raw[headerSizeV1:]
	case envelopeVersion:
		if len(raw) < headerSize {
			return nil, 0, fmt.Errorf("store: envelope truncated at %d bytes (v2 header is %d)", len(raw), headerSize)
		}
		kind = binary.LittleEndian.Uint32(raw[8:12])
		length = binary.LittleEndian.Uint64(raw[12:20])
		want = binary.LittleEndian.Uint32(raw[20:24])
		payload = raw[headerSize:]
	default:
		return nil, 0, fmt.Errorf("store: unsupported envelope version %d (want <= %d)", v, envelopeVersion)
	}
	if kind != wantKind {
		return nil, 0, fmt.Errorf("store: envelope carries payload kind %d, want %d", kind, wantKind)
	}
	if length != uint64(len(payload)) {
		return nil, 0, fmt.Errorf("store: envelope declares %d payload bytes, file carries %d", length, len(payload))
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, 0, fmt.Errorf("store: envelope checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return payload, want, nil
}

func (s *Store) bumpNext(n uint64) {
	if n >= s.next {
		s.next = n + 1
	}
}

func genDirName(n uint64) string { return fmt.Sprintf("%s%08d", genPrefix, n) }

// parseGenNumber extracts the generation number, in (0, 2^62], from a
// directory name with the given prefix; zero-padded and unpadded forms both
// parse.
func parseGenNumber(name, prefix string) (uint64, bool) {
	n, err := strconv.ParseUint(strings.TrimPrefix(name, prefix), 10, 64)
	if err != nil || n == 0 || n > 1<<62 {
		return 0, false
	}
	return n, true
}
