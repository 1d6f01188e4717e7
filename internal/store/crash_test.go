package store_test

// The crash/chaos suite: every filesystem fault kind the fault layer can
// inject — process crash at any operation, torn write, ENOSPC, short read,
// bit-flip — is swept across every operation ordinal of a publish (or
// recovery), and after each injected fault the store must recover to a
// valid generation whose payload reads back bit-identical. The sweep is
// exhaustive over crash points, so the atomic-rename protocol is proved,
// not spot-checked. QFE_SOAK=1 (make soak) widens the sweep with more
// seeds; -short narrows it to one seed.

import (
	"errors"
	"os"
	"testing"

	"qfe/internal/resilience/faultinject"
	"qfe/internal/store"
)

const (
	payloadOld = "old-but-gold generation payload"
	payloadNew = "freshly trained generation payload"
)

// seedSweepWidth picks how many fault seeds each sweep runs.
func seedSweepWidth(t *testing.T) int64 {
	if os.Getenv("QFE_SOAK") != "" {
		return 25
	}
	if testing.Short() {
		return 1
	}
	return 3
}

// seededDir builds a store directory holding one valid generation.
func seededDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("m", "seed", []byte(payloadOld)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// countPublishOps measures the mutating-operation count of Open + one Put,
// which bounds the crash sweep.
func countPublishOps(t *testing.T) int {
	t.Helper()
	ffs := faultinject.NewFS(nil, faultinject.FSConfig{Kind: faultinject.FSNone})
	s, err := store.Open(seededDir(t), store.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("m", "count", []byte(payloadNew)); err != nil {
		t.Fatal(err)
	}
	return ffs.MutatingOps()
}

// verifyRecovered reopens dir with the real filesystem and checks the core
// invariant: a valid generation exists, its payload reads back intact, and
// — when the interrupted publish was acked — the new generation survived.
func verifyRecovered(t *testing.T, dir string, acked bool, tag string) {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("%s: recovery Open failed: %v", tag, err)
	}
	latest, ok := s.Latest()
	if !ok {
		t.Fatalf("%s: no valid generation after recovery (report %+v)", tag, s.Recovery())
	}
	payload, _, err := s.Read(latest.Number)
	if err != nil {
		t.Fatalf("%s: Read(%d) after recovery: %v", tag, latest.Number, err)
	}
	switch {
	case acked && string(payload) != payloadNew:
		t.Fatalf("%s: acked publish lost — latest %d carries %q", tag, latest.Number, payload)
	case string(payload) != payloadOld && string(payload) != payloadNew:
		t.Fatalf("%s: latest %d carries corrupt payload %q", tag, latest.Number, payload)
	}
	// Recovery must also be able to publish again: the store self-heals.
	if _, err := s.Put("m", "post-recovery", []byte("after the storm")); err != nil {
		t.Fatalf("%s: publish after recovery: %v", tag, err)
	}
}

// TestCrashSweep kills the filesystem at every mutating operation of a
// publish — with and without a torn partial write at the point of death —
// and requires full recovery every time.
func TestCrashSweep(t *testing.T) {
	ops := countPublishOps(t)
	if ops < 6 {
		t.Fatalf("publish performs only %d mutating ops; protocol shrank?", ops)
	}
	seeds := seedSweepWidth(t)
	for _, kind := range []faultinject.FSFaultKind{faultinject.FSCrash, faultinject.FSTornWrite} {
		t.Run(kind.String(), func(t *testing.T) {
			crashes := 0
			for seed := int64(1); seed <= seeds; seed++ {
				for op := 1; op <= ops; op++ {
					dir := seededDir(t)
					ffs := faultinject.NewFS(nil, faultinject.FSConfig{Seed: seed, Kind: kind, Op: op})
					tag := kind.String() + "@" + string(rune('0'+op))
					acked := false
					s, err := store.Open(dir, store.Options{FS: ffs})
					if err == nil {
						_, perr := s.Put("m", "doomed?", []byte(payloadNew))
						acked = perr == nil
					}
					if ffs.Crashed() {
						crashes++
					}
					verifyRecovered(t, dir, acked, tag)
				}
			}
			if crashes == 0 {
				t.Error("sweep never reached a crash point; ordinals are off")
			}
		})
	}
}

// TestENOSPCSweep fires an out-of-space failure (with a partial write on
// writes) at every mutating operation ordinal, including metadata steps like
// the post-rename root fsync. Unlike a crash the process lives on: the
// failed publish must leave the previous generation serving, and a retry on
// the same open store must succeed — even when the failed attempt already
// renamed its generation into place and burned the number.
func TestENOSPCSweep(t *testing.T) {
	ops := countPublishOps(t)
	seeds := seedSweepWidth(t)
	fired := 0
	for seed := int64(1); seed <= seeds; seed++ {
		for op := 1; op <= ops; op++ {
			dir := seededDir(t)
			ffs := faultinject.NewFS(nil, faultinject.FSConfig{Seed: seed, Kind: faultinject.FSENOSPC, Op: op})
			s, err := store.Open(dir, store.Options{FS: ffs})
			if err != nil {
				// The fault hit Open's own MkdirAll: the store refuses to
				// open, and the directory must be intact for the next try.
				if !errors.Is(err, faultinject.ErrNoSpace) {
					t.Fatalf("op %d: Open = %v, want ErrNoSpace", op, err)
				}
				fired++
				verifyRecovered(t, dir, false, "enospc-open")
				continue
			}
			_, perr := s.Put("m", "first try", []byte(payloadNew))
			if perr != nil {
				if !errors.Is(perr, faultinject.ErrNoSpace) {
					t.Fatalf("op %d: Put failed with %v, want ErrNoSpace", op, perr)
				}
				fired++
				// The incumbent is untouched, in memory and on disk.
				latest, ok := s.Latest()
				if !ok || latest.Number != 1 {
					t.Fatalf("op %d: Latest after ENOSPC = %+v, %v, want generation 1", op, latest, ok)
				}
				if payload, _, err := s.Read(1); err != nil || string(payload) != payloadOld {
					t.Fatalf("op %d: incumbent damaged after ENOSPC: %q, %v", op, payload, err)
				}
			}
			// Space freed (the fault fires once): the retry publishes. When
			// the failed attempt died after its rename (root-sync ENOSPC),
			// this also proves the retry takes a fresh generation number
			// instead of colliding with the directory left behind.
			g, err := s.Put("m", "retry", []byte(payloadNew))
			if err != nil {
				t.Fatalf("op %d: retry after ENOSPC: %v", op, err)
			}
			if payload, _, err := s.Read(g.Number); err != nil || string(payload) != payloadNew {
				t.Fatalf("op %d: retried publish reads %q, %v", op, payload, err)
			}
			verifyRecovered(t, dir, true, "enospc-retry")
		}
	}
	if fired == 0 {
		t.Error("sweep never fired ENOSPC")
	}
}

// TestReadFaultSweep injects short reads and bit-flips into every file read
// a recovery scan performs over a two-generation store. The damaged
// generation must be rejected by the envelope checks and the other one
// must recover with its exact payload.
func TestReadFaultSweep(t *testing.T) {
	// Build a two-generation directory and count recovery reads.
	dir := seededDir(t)
	{
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("m", "second", []byte(payloadNew)); err != nil {
			t.Fatal(err)
		}
	}
	counter := faultinject.NewFS(nil, faultinject.FSConfig{Kind: faultinject.FSNone})
	if _, err := store.Open(dir, store.Options{FS: counter}); err != nil {
		t.Fatal(err)
	}
	reads := counter.Reads()
	if reads < 4 {
		t.Fatalf("recovery performed only %d reads over 2 generations", reads)
	}

	seeds := seedSweepWidth(t)
	for _, kind := range []faultinject.FSFaultKind{faultinject.FSShortRead, faultinject.FSBitFlip} {
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				for op := 1; op <= reads; op++ {
					ffs := faultinject.NewFS(nil, faultinject.FSConfig{Seed: seed, Kind: kind, Op: op})
					s, err := store.Open(dir, store.Options{FS: ffs})
					if err != nil {
						t.Fatalf("%s op %d: Open: %v", kind, op, err)
					}
					if ffs.Injected() == 0 {
						t.Fatalf("%s op %d: fault never fired in %d reads", kind, op, reads)
					}
					rep := s.Recovery()
					if rep.Valid != 1 || rep.Corrupt != 1 {
						t.Fatalf("%s op %d: report %+v, want exactly 1 valid + 1 corrupt", kind, op, rep)
					}
					latest, ok := s.Latest()
					if !ok {
						t.Fatalf("%s op %d: no generation survived", kind, op)
					}
					want := payloadOld
					if latest.Number == 2 {
						want = payloadNew
					}
					payload, _, err := s.Read(latest.Number)
					if err != nil || string(payload) != want {
						t.Fatalf("%s op %d: surviving generation %d reads %q, %v", kind, op, latest.Number, payload, err)
					}
				}
			}
		})
	}
}
