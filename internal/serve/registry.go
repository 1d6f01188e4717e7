package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qfe/internal/estimator"
	"qfe/internal/resilience"
)

// Registry holds the named estimators a server routes requests to. Reads
// are lock-free: the whole name→entry view lives behind one atomic pointer
// to an immutable snapshot, so resolving a model costs a single atomic load
// and a map lookup. Writers (Register, SetDefault) serialize on a
// mutex, build a fresh snapshot, and publish it atomically — in-flight
// requests that already resolved an estimator keep the one they hold, which
// is exactly what makes hot-swapping a model safe: no request ever observes
// a half-replaced registry or loses its estimator mid-call.
type Registry struct {
	// Wrap, when non-nil, is applied to every estimator entering the
	// registry: it puts the resilience chain in front of each model. The
	// server serves chains only, so what Wrap returns (or, with no Wrap, what
	// is registered) must be a *resilience.Resilient.
	Wrap func(estimator.Estimator) estimator.Estimator

	mu   sync.Mutex // serializes writers
	gen  atomic.Uint64
	snap atomic.Pointer[regSnapshot]
}

// ModelInfo is the registry's public description of one entry, rendered by
// GET /v1/models.
type ModelInfo struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`      // snapshot kind ("local"), or the registrant's tag
	Estimator   string `json:"estimator"` // the (possibly wrapped) estimator's Name()
	Source      string `json:"source"`    // file path, or a caller-chosen tag like "boot"
	Models      int    `json:"models,omitempty"`
	MemoryBytes int    `json:"memoryBytes,omitempty"`
	Generation  uint64 `json:"generation"` // registry write that produced this entry

	// StoreGeneration is the crash-safe store generation backing this entry
	// (0 when the model was never persisted through the lifecycle).
	StoreGeneration uint64 `json:"storeGeneration,omitempty"`
	// Canary is the entry's canary verdict: the run that admitted it.
	Canary *CanaryResult `json:"canary,omitempty"`
}

type regEntry struct {
	info ModelInfo
	est  *resilience.Resilient
}

type regSnapshot struct {
	entries map[string]*regEntry
	names   []string // sorted
	def     string   // default model name, "" when empty
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.snap.Store(&regSnapshot{entries: map[string]*regEntry{}})
	return r
}

// Register installs est under name (replacing any previous entry with that
// name atomically) and returns the completed info. The first model ever
// registered becomes the default. An estimator that is not a resilience chain
// once Wrap has been applied is refused: every answer the server gives comes
// from a chain, which always has one.
func (r *Registry) Register(name string, est estimator.Estimator, info ModelInfo) (ModelInfo, error) {
	if name == "" {
		return ModelInfo{}, fmt.Errorf("serve: model name must not be empty")
	}
	if est == nil {
		return ModelInfo{}, fmt.Errorf("serve: model %q has a nil estimator", name)
	}
	// The model is introspected before it is wrapped: a wrapper (the
	// resilience chain) reports no models and no memory of its own.
	if nm, ok := est.(interface{ NumModels() int }); ok && info.Models == 0 {
		info.Models = nm.NumModels()
	}
	if mb, ok := est.(interface{ MemoryBytes() int }); ok && info.MemoryBytes == 0 {
		info.MemoryBytes = mb.MemoryBytes()
	}
	if r.Wrap != nil {
		est = r.Wrap(est)
	}
	chain, ok := est.(*resilience.Resilient)
	if !ok || chain == nil {
		return ModelInfo{}, fmt.Errorf("serve: model %q would be served as %T, not behind a *resilience.Resilient (set Registry.Wrap)", name, est)
	}
	info.Name = name
	info.Estimator = chain.Name()

	r.mu.Lock()
	defer r.mu.Unlock()
	info.Generation = r.gen.Add(1)
	old := r.snap.Load()
	next := &regSnapshot{entries: make(map[string]*regEntry, len(old.entries)+1), def: old.def}
	for k, v := range old.entries {
		next.entries[k] = v
	}
	next.entries[name] = &regEntry{info: info, est: chain}
	if next.def == "" {
		next.def = name
	}
	next.names = make([]string, 0, len(next.entries))
	for k := range next.entries {
		next.names = append(next.names, k)
	}
	sort.Strings(next.names)
	r.snap.Store(next)
	return info, nil
}

// Resolve returns the chain registered under name; the empty string (or
// "default") resolves to the default model. The returned chain stays valid
// for the caller's whole request even if the entry is swapped concurrently.
func (r *Registry) Resolve(name string) (*resilience.Resilient, ModelInfo, error) {
	s := r.snap.Load()
	if name == "" || name == "default" {
		name = s.def
		if name == "" {
			return nil, ModelInfo{}, fmt.Errorf("serve: no models registered")
		}
	}
	e, ok := s.entries[name]
	if !ok {
		return nil, ModelInfo{}, fmt.Errorf("serve: unknown model %q (have %v)", name, s.names)
	}
	return e.est, e.info, nil
}

// List returns every entry's info in name order plus the default name.
func (r *Registry) List() ([]ModelInfo, string) {
	s := r.snap.Load()
	out := make([]ModelInfo, 0, len(s.names))
	for _, n := range s.names {
		out = append(out, s.entries[n].info)
	}
	return out, s.def
}

// SetDefault makes name the default model.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	if _, ok := old.entries[name]; !ok {
		return fmt.Errorf("serve: unknown model %q (have %v)", name, old.names)
	}
	if old.def == name {
		return nil
	}
	next := &regSnapshot{entries: old.entries, names: old.names, def: name}
	r.snap.Store(next)
	return nil
}
