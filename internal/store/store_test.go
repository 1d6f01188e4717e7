package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustPut(t *testing.T, s *Store, payload string) Generation {
	t.Helper()
	g, err := s.Put("m", "test", []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPutReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Latest(); ok {
		t.Fatal("empty store reports a latest generation")
	}

	g1 := mustPut(t, s, "payload-one")
	g2 := mustPut(t, s, "payload-two")
	if g1.Number != 1 || g2.Number != 2 {
		t.Fatalf("generation numbers %d, %d, want 1, 2", g1.Number, g2.Number)
	}
	latest, ok := s.Latest()
	if !ok || latest.Number != 2 {
		t.Fatalf("Latest = %+v, %v, want generation 2", latest, ok)
	}
	payload, man, err := s.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "payload-two" {
		t.Errorf("Read payload = %q", payload)
	}
	if man.Name != "m" || man.Note != "test" || man.PayloadBytes != len("payload-two") {
		t.Errorf("manifest = %+v", man)
	}

	// Reopen: both generations recover, newest wins.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.Recovery(); rep.Valid != 2 || rep.Corrupt != 0 {
		t.Errorf("recovery report = %+v, want 2 valid", rep)
	}
	latest, ok = s2.Latest()
	if !ok || latest.Number != 2 {
		t.Fatalf("reopened Latest = %+v, %v", latest, ok)
	}
	if payload, _, err = s2.Read(1); err != nil || string(payload) != "payload-one" {
		t.Errorf("Read(1) = %q, %v", payload, err)
	}
}

func TestRejectsEmptyPayload(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("m", "", nil); err == nil {
		t.Error("empty payload accepted")
	}
}

// TestManifestWithKindStillOpens: older builds wrote the snapshot's kind into
// the manifest ("kind":"local"). The decoder alone decides the kind now, and
// such a generation still opens as valid and reads back.
func TestManifestWithKindStillOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := mustPut(t, s, "payload")
	man, err := json.Marshal(g.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	old := append(bytes.TrimSuffix(man, []byte("}")), `,"kind":"local"}`...)
	if err := os.WriteFile(filepath.Join(dir, genDirName(g.Number), manifestFile), frame(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.Recovery(); rep.Valid != 1 || rep.Corrupt != 0 {
		t.Fatalf("recovery report = %+v, want the generation valid", rep)
	}
	payload, got, err := s2.Read(g.Number)
	if err != nil || string(payload) != "payload" || got != g.Manifest {
		t.Fatalf("Read = %q, %+v, %v; want the payload and the manifest Put wrote", payload, got, err)
	}
}

// TestAtRestCorruptionRejected flips bytes at every region of a published
// generation — envelope header, payload, manifest — and requires Open to
// reject that generation and fall back to the previous one.
func TestAtRestCorruptionRejected(t *testing.T) {
	for _, target := range []string{snapshotFile, manifestFile} {
		t.Run(target, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			mustPut(t, s, "good-generation")
			mustPut(t, s, "doomed-generation")

			path := filepath.Join(dir, genDirName(2), target)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Step through the file so every region (magic, version, length,
			// CRC, payload / JSON fields) gets corrupted in some subtest run.
			step := len(orig)/7 + 1
			for off := 0; off < len(orig); off += step {
				mut := append([]byte(nil), orig...)
				mut[off] ^= 0x40
				if bytes.Equal(mut, orig) {
					continue
				}
				if err := os.WriteFile(path, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				s2, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("offset %d: Open failed entirely: %v", off, err)
				}
				latest, ok := s2.Latest()
				if !ok || latest.Number != 1 {
					t.Fatalf("offset %d: Latest = %+v, %v, want generation 1", off, latest, ok)
				}
				if payload, _, err := s2.Read(1); err != nil || string(payload) != "good-generation" {
					t.Fatalf("offset %d: Read(1) = %q, %v", off, payload, err)
				}
				if rep := s2.Recovery(); rep.Corrupt != 1 {
					t.Errorf("offset %d: recovery report = %+v, want 1 corrupt", off, rep)
				}
			}
		})
	}
}

// TestTruncatedSnapshotRejected covers torn files shorter than the header.
func TestTruncatedSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "keeper")
	mustPut(t, s, "will-be-torn")
	path := filepath.Join(dir, genDirName(2), snapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, headerSize - 1, headerSize, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("truncate to %d: %v", n, err)
		}
		if latest, ok := s2.Latest(); !ok || latest.Number != 1 {
			t.Fatalf("truncate to %d: Latest = %+v, %v, want generation 1", n, latest, ok)
		}
	}
}

func TestRetentionGC(t *testing.T) {
	const kept = 5 // the store's retention horizon
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= kept+2; i++ {
		mustPut(t, s, fmt.Sprintf("payload-%d", i))
	}
	gens := s.Generations()
	if len(gens) != kept || gens[0].Number != 3 || gens[kept-1].Number != kept+2 {
		t.Fatalf("generations after GC = %+v, want [3 .. %d]", gens, kept+2)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range names {
		dirs = append(dirs, e.Name())
	}
	if len(dirs) != kept {
		t.Errorf("on-disk dirs = %v, want exactly the %d retained", dirs, kept)
	}

	// Numbers keep climbing after GC and reopen: no reuse, ever.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := mustPut(t, s2, "payload-8")
	if g.Number != kept+3 {
		t.Errorf("generation after reopen = %d, want %d", g.Number, kept+3)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "older")
	mustPut(t, s, "bad-model")

	if err := s.Quarantine(2); err != nil {
		t.Fatal(err)
	}
	if latest, ok := s.Latest(); !ok || latest.Number != 1 {
		t.Fatalf("Latest after quarantine = %+v, %v, want generation 1", latest, ok)
	}
	if _, _, err := s.Read(2); err == nil {
		t.Error("Read of quarantined generation succeeded")
	}
	if err := s.Quarantine(2); !errors.Is(err, ErrUnknownGeneration) {
		t.Errorf("double quarantine = %v, want ErrUnknownGeneration", err)
	}

	// Quarantine survives reopen, and the number is never reused.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.Recovery(); rep.Quarantined != 1 || rep.Valid != 1 {
		t.Errorf("recovery report = %+v, want 1 quarantined / 1 valid", rep)
	}
	if g := mustPut(t, s2, "fresh"); g.Number != 3 {
		t.Errorf("post-quarantine generation = %d, want 3", g.Number)
	}
}

// failRootSyncFS delegates to the real filesystem but fails SyncDir on one
// directory while armed — the "fsync the root after rename" step of Put.
type failRootSyncFS struct {
	FS
	root string
	arm  bool
}

func (f *failRootSyncFS) SyncDir(dir string) error {
	if f.arm && dir == f.root {
		f.arm = false
		return errors.New("injected: root sync failed")
	}
	return f.FS.SyncDir(dir)
}

// TestRootSyncFailureBurnsNumber: when the rename lands but the root fsync
// fails, Put reports the error (the publish is not acked and stays out of
// the valid set) yet the generation number is burned, so a retry publishes
// under a fresh number instead of colliding forever with the directory the
// failed attempt left behind.
func TestRootSyncFailureBurnsNumber(t *testing.T) {
	dir := t.TempDir()
	fsys := &failRootSyncFS{FS: OSFS(), root: dir}
	s, err := Open(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	g1 := mustPut(t, s, "first")

	fsys.arm = true
	if _, err := s.Put("m", "doomed", []byte("second")); err == nil {
		t.Fatal("Put with failing root sync succeeded")
	}
	// Not acked: the incumbent still leads the valid set.
	if latest, ok := s.Latest(); !ok || latest.Number != g1.Number {
		t.Fatalf("Latest after sync failure = %+v, %v, want generation %d", latest, ok, g1.Number)
	}

	// The retry must take a fresh number — gen-2 exists on disk already.
	g3, err := s.Put("m", "retry", []byte("third"))
	if err != nil {
		t.Fatalf("retry after sync failure: %v", err)
	}
	if g3.Number != 3 {
		t.Fatalf("retry generation = %d, want 3 (number 2 burned by the failed attempt)", g3.Number)
	}
	if payload, _, err := s.Read(g3.Number); err != nil || string(payload) != "third" {
		t.Fatalf("Read(%d) = %q, %v", g3.Number, payload, err)
	}

	// Reopen: the unacked-but-renamed generation 2 is on disk and valid, and
	// the retry stays newest.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.Recovery(); rep.Valid != 3 {
		t.Errorf("recovery report = %+v, want 3 valid", rep)
	}
	if latest, ok := s2.Latest(); !ok || latest.Number != 3 {
		t.Fatalf("reopened Latest = %+v, %v, want generation 3", latest, ok)
	}
}

// TestSweepsTempDirs: a crash mid-Put leaves tmp-gen-N; Open removes it and
// never treats it as publishable.
func TestSweepsTempDirs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "real")
	torn := filepath.Join(dir, tmpPrefix+"00000002")
	if err := os.MkdirAll(torn, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(torn, snapshotFile), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.Recovery(); rep.TempSwept != 1 || rep.Valid != 1 {
		t.Errorf("recovery report = %+v, want 1 swept / 1 valid", rep)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("temp dir still present after Open (stat err %v)", err)
	}
	// The torn number is burned, never reused: the next publish skips it.
	if g := mustPut(t, s2, "next"); g.Number != 3 {
		t.Errorf("generation after sweep = %d, want 3 (temp number burned)", g.Number)
	}
}

// payloadCheckpoint is the envelope kind resumable training checkpoints
// were framed with, reserved in store.go.
const payloadCheckpoint uint32 = 1

// TestOpenSweepsRetiredCheckpoints: a store a -retrain daemon of an older
// build used holds its training checkpoint (ckpt-<name>, committed) and may
// hold a torn write of the next one (tmp-ckpt-<name>). Nothing reads either
// now, so Open removes both and recovers the generations beside them. A
// checkpoint file renamed into a generation directory is still refused: its
// frame carries the checkpoint kind, not a snapshot's.
func TestOpenSweepsRetiredCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "real")
	progress := []byte(`{"labels":[1,2,3],"train":"e30="}`)
	ckpt := frameKind(payloadCheckpoint, progress)
	if err := os.WriteFile(filepath.Join(dir, ckptPrefix+"retrain"), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tmpCkptPrefix+"retrain"), ckpt[:len(ckpt)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	renamed := filepath.Join(dir, genDirName(2))
	if err := os.MkdirAll(renamed, 0o755); err != nil {
		t.Fatal(err)
	}
	man, err := json.Marshal(Manifest{Format: manifestFormat, Generation: 2, Name: "m",
		PayloadBytes: len(progress), CRC32: crc32.Checksum(progress, crcTable)})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{snapshotFile: ckpt, manifestFile: frame(man)} {
		if err := os.WriteFile(filepath.Join(renamed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s2.Recovery(); rep.Valid != 1 || rep.Corrupt != 1 || rep.TempSwept != 2 {
		t.Errorf("recovery report = %+v, want 1 valid / 1 corrupt / 2 swept", rep)
	}
	if g, ok := s2.Latest(); !ok || g.Number != 1 {
		t.Fatalf("Latest = %+v, %v, want generation 1", g, ok)
	}
	if payload, _, err := s2.Read(1); err != nil || string(payload) != "real" {
		t.Errorf("Read(1) = %q, %v", payload, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ckptPrefix) {
			t.Errorf("%s survived Open", e.Name())
		}
	}
}

func TestIgnoresForeignDirEntries(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"gen-", "gen-abc", "gen-00", "notes.txt", "gen-7x"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := s.Recovery(); rep.Valid != 0 {
		t.Errorf("recovery report = %+v, want nothing valid", rep)
	}
	if g := mustPut(t, s, "first"); g.Number != 1 {
		t.Errorf("first generation = %d, want 1", g.Number)
	}
}

func TestUnframeErrors(t *testing.T) {
	good := frame([]byte("hello"))
	cases := map[string][]byte{
		"short":       good[:headerSize-2],
		"bad magic":   append([]byte("NOPE"), good[4:]...),
		"bad version": func() []byte { b := append([]byte(nil), good...); b[4] = 99; return b }(),
		"bad length":  func() []byte { b := append([]byte(nil), good...); b[8]++; return b }(),
		"bad crc":     func() []byte { b := append([]byte(nil), good...); b[16]++; return b }(),
		"bad payload": func() []byte { b := append([]byte(nil), good...); b[headerSize]++; return b }(),
	}
	for name, raw := range cases {
		if _, _, err := unframe(raw); err == nil {
			t.Errorf("%s: unframe accepted corrupt envelope", name)
		} else if !strings.Contains(err.Error(), "store:") {
			t.Errorf("%s: error %v lacks package prefix", name, err)
		}
	}
	if payload, _, err := unframe(good); err != nil || string(payload) != "hello" {
		t.Errorf("good envelope: %q, %v", payload, err)
	}
}

// TestParseGenNumber: a generation's directory name parses to its number in
// (0, 2^62], padded or not; anything else, a 20-digit number that would wrap
// a uint64 on its last digit included, is not a generation.
func TestParseGenNumber(t *testing.T) {
	for _, tc := range []struct {
		name string
		want uint64
		ok   bool
	}{
		{"gen-00000001", 1, true},
		{"gen-1", 1, true},
		{"gen-00000042", 42, true},
		{"gen-123456789", 123456789, true},
		{"gen-4611686018427387904", 1 << 62, true},
		{"gen-0004611686018427387904", 1 << 62, true},
		{"gen-4611686018427387905", 0, false},
		{"gen-20000000000000000000", 0, false},
		{"gen-18446744073709551621", 0, false},
		{"gen-99999999999999999999", 0, false},
		{"gen-00000000", 0, false},
		{"gen-", 0, false},
		{"gen-+1", 0, false},
		{"gen-1_000", 0, false},
		{"gen-12a", 0, false},
	} {
		if n, ok := parseGenNumber(tc.name, genPrefix); n != tc.want || ok != tc.ok {
			t.Errorf("parseGenNumber(%q) = %d, %v; want %d, %v", tc.name, n, ok, tc.want, tc.ok)
		}
	}
	for _, prefix := range []string{tmpPrefix, quarantinePrefix} {
		if n, ok := parseGenNumber(prefix+"00000007", prefix); n != 7 || !ok {
			t.Errorf("%s00000007 parses to %d, %v; want 7, true", prefix, n, ok)
		}
	}
}
