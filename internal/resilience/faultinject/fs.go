package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"qfe/internal/store"
)

// This file extends the fault injector from estimator calls to the
// filesystem: FS wraps a store.FS and fires one configured fault at a
// deterministic operation ordinal. Together with the snapshot store's
// write protocol it drives the crash/chaos suite — sweeping the crash
// point across every mutating operation of a publish proves that recovery
// after *any* torn write yields a loadable generation, and read-side
// faults (short reads, bit-flips) prove the checksummed envelope rejects
// silently corrupted bytes instead of serving them.

// FSFaultKind selects the filesystem fault to inject.
type FSFaultKind int

const (
	// FSNone injects nothing; the wrapper only counts operations (used to
	// size crash sweeps).
	FSNone FSFaultKind = iota
	// FSCrash makes the Op-th mutating operation — and everything after it
	// — fail with ErrCrashed, applying no changes: a process death before
	// the operation reached the disk.
	FSCrash
	// FSTornWrite is FSCrash where the fatal operation, if it is a
	// WriteFile, first persists a seed-chosen strict prefix of the data: a
	// power loss mid-write.
	FSTornWrite
	// FSENOSPC makes the Op-th mutating operation fail with ErrNoSpace — a
	// WriteFile first persists a seed-chosen prefix of its data — and the
	// filesystem keeps working afterwards. A full disk, not a crash; unlike
	// the crash kinds it also hits metadata operations (MkdirAll, Rename,
	// RemoveAll, SyncDir), modeling fsync or rename failing on a full disk.
	FSENOSPC
	// FSShortRead makes the Op-th ReadFile return a strict prefix of the
	// file with no error.
	FSShortRead
	// FSBitFlip makes the Op-th ReadFile return the file with one
	// seed-chosen bit inverted.
	FSBitFlip
	// FSReadError makes the Op-th ReadFile fail with ErrReadFailed: a
	// file that is listed but cannot be read.
	FSReadError
)

// String renders the fault kind.
func (k FSFaultKind) String() string {
	switch k {
	case FSNone:
		return "none"
	case FSCrash:
		return "crash"
	case FSTornWrite:
		return "torn-write"
	case FSENOSPC:
		return "enospc"
	case FSShortRead:
		return "short-read"
	case FSBitFlip:
		return "bit-flip"
	case FSReadError:
		return "read-error"
	}
	return fmt.Sprintf("FSFaultKind(%d)", int(k))
}

// ErrCrashed is returned by every operation at and after the injected
// crash point: the process is "dead" as far as this FS handle goes.
var ErrCrashed = errors.New("faultinject: filesystem crashed")

// ErrNoSpace is the injected out-of-space error. It unwraps to ENOSPC-like
// behavior only in message; callers match on the error value.
var ErrNoSpace = errors.New("faultinject: no space left on device")

// ErrReadFailed is the injected read error.
var ErrReadFailed = errors.New("faultinject: input/output error")

// FSConfig places one fault.
type FSConfig struct {
	// Seed drives the torn-prefix lengths and bit positions.
	Seed int64
	// Kind is the fault to inject; FSNone only counts operations.
	Kind FSFaultKind
	// Op is the 1-based ordinal of the operation the fault fires at —
	// mutating operations (MkdirAll, WriteFile, Rename, RemoveAll,
	// SyncDir) for the write-side kinds, ReadFile calls for the read-side
	// kinds. 0 never fires.
	Op int
}

// FS wraps a store.FS with one deterministic fault. It is safe for
// concurrent use, though crash sweeps are meaningful only for serialized
// operation sequences (which is what the store performs under its lock).
type FS struct {
	base store.FS
	cfg  FSConfig

	mu       sync.Mutex
	mutates  int
	reads    int
	crashed  bool
	injected int
	rng      *rand.Rand
}

// NewFS wraps base (nil means the real filesystem) with cfg's fault.
func NewFS(base store.FS, cfg FSConfig) *FS {
	if base == nil {
		base = store.OSFS()
	}
	return &FS{base: base, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// MutatingOps returns how many mutating operations have been attempted —
// run a clean pass (FSNone) first, then sweep Op over [1, MutatingOps()].
func (f *FS) MutatingOps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mutates
}

// Reads returns how many ReadFile calls have been attempted.
func (f *FS) Reads() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

// Injected returns how many faults actually fired.
func (f *FS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Crashed reports whether the crash point has been reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// mutate accounts one mutating operation and decides its fate:
// ok=false means the operation must fail with err without touching the
// disk; tearAt >= 0 means "persist exactly tearAt bytes, then fail" (only
// meaningful for writes; non-write operations treat it as a plain crash).
func (f *FS) mutate(dataLen int) (tearAt int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return -1, ErrCrashed
	}
	f.mutates++
	fire := f.cfg.Op > 0 && f.mutates == f.cfg.Op
	switch f.cfg.Kind {
	case FSCrash:
		if fire {
			f.crashed = true
			f.injected++
			return -1, ErrCrashed
		}
	case FSTornWrite:
		if fire {
			f.crashed = true
			f.injected++
			if dataLen > 0 {
				return f.rng.Intn(dataLen), ErrCrashed // strict prefix: [0, len)
			}
			return -1, ErrCrashed
		}
	case FSENOSPC:
		if fire {
			f.injected++
			if dataLen > 0 {
				return f.rng.Intn(dataLen), ErrNoSpace
			}
			return -1, ErrNoSpace
		}
	}
	return -1, nil
}

// MkdirAll implements store.FS.
func (f *FS) MkdirAll(dir string) error {
	if _, err := f.mutate(-1); err != nil {
		return err
	}
	return f.base.MkdirAll(dir)
}

// WriteFile implements store.FS with torn-write and ENOSPC semantics.
func (f *FS) WriteFile(path string, data []byte) error {
	tearAt, err := f.mutate(len(data))
	if err != nil {
		if tearAt >= 0 {
			// Persist the prefix that "made it to disk" before the failure.
			f.base.WriteFile(path, data[:tearAt]) //nolint:errcheck // the op already failed
		}
		return err
	}
	return f.base.WriteFile(path, data)
}

// AppendFile implements store.FS with torn-write and ENOSPC semantics: a
// fault firing on an append persists a seed-chosen strict prefix of the
// batch behind whatever the file already held — exactly the torn tail a
// power loss mid-append leaves in a journal segment.
func (f *FS) AppendFile(path string, data []byte) error {
	tearAt, err := f.mutate(len(data))
	if err != nil {
		if tearAt >= 0 {
			f.base.AppendFile(path, data[:tearAt]) //nolint:errcheck // the op already failed
		}
		return err
	}
	return f.base.AppendFile(path, data)
}

// Rename implements store.FS.
func (f *FS) Rename(oldPath, newPath string) error {
	if _, err := f.mutate(-1); err != nil {
		return err
	}
	return f.base.Rename(oldPath, newPath)
}

// RemoveAll implements store.FS.
func (f *FS) RemoveAll(path string) error {
	if _, err := f.mutate(-1); err != nil {
		return err
	}
	return f.base.RemoveAll(path)
}

// SyncDir implements store.FS.
func (f *FS) SyncDir(dir string) error {
	if _, err := f.mutate(-1); err != nil {
		return err
	}
	return f.base.SyncDir(dir)
}

// ReadFile implements store.FS with short-read and bit-flip semantics.
func (f *FS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.reads++
	fire := f.cfg.Op > 0 && f.reads == f.cfg.Op
	kind := f.cfg.Kind
	if fire && kind == FSReadError {
		f.injected++
		f.mu.Unlock()
		return nil, ErrReadFailed
	}
	f.mu.Unlock()

	data, err := f.base.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !fire {
		return data, nil
	}
	switch kind {
	case FSShortRead:
		f.mu.Lock()
		f.injected++
		n := 0
		if len(data) > 0 {
			n = f.rng.Intn(len(data)) // strict prefix
		}
		f.mu.Unlock()
		return data[:n], nil
	case FSBitFlip:
		f.mu.Lock()
		f.injected++
		mut := append([]byte(nil), data...)
		if len(mut) > 0 {
			bit := f.rng.Intn(len(mut) * 8)
			mut[bit/8] ^= 1 << (bit % 8)
		}
		f.mu.Unlock()
		return mut, nil
	}
	return data, nil
}

// ReadDir implements store.FS (never faulted; directory listings are not
// part of the fault model).
func (f *FS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	f.mu.Unlock()
	return f.base.ReadDir(dir)
}

var _ store.FS = (*FS)(nil)
