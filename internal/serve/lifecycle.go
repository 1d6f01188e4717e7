package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/store"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// Lifecycle is the one path from snapshot bytes to the registry: it decodes
// every candidate itself, the model must clear the canary gate before it is
// registered, a passing default is durably persisted to the crash-safe store
// (when there is one) before it takes traffic, and the reverse path —
// quarantine the live generation, roll the registry back to the previous good
// one — is the same machinery run in the other direction, on
// POST /v1/models/rollback. The default therefore always has a rollbackable
// generation behind it, and the store holds nothing else. A model
// is judged once, at its door: an estimator is not altered after it is
// published, so the verdict that admitted it stands until the model or the
// canary workload changes, and both re-baseline (Publish, Recover, Rollback,
// SetCanaryWorkload).
//
// Locking: one mutex serializes lifecycle transitions (publish, rollback,
// workload swap). Canary runs execute under it — transitions are rare and
// must not interleave — while estimate traffic keeps resolving models
// lock-free through the registry snapshot.

// ErrCanaryRejected wraps every publish refusal caused by a failed canary.
var ErrCanaryRejected = errors.New("serve: canary rejected the model")

// ErrBadSnapshot wraps every publish refusal caused by the bytes themselves:
// they do not decode into a model, or the model does not fit the serving
// schema.
var ErrBadSnapshot = errors.New("serve: bad snapshot")

// ErrNoRollbackTarget is returned when no prior valid generation exists.
var ErrNoRollbackTarget = errors.New("serve: no valid generation to roll back to")

// LifecycleConfig assembles a Lifecycle.
type LifecycleConfig struct {
	// Registry is where admitted models are published. Required.
	Registry *Registry
	// Store persists the snapshots of admitted defaults and feeds
	// recovery/rollback. May be nil: the canary gate still applies, but
	// nothing is durable and rollback has nothing to roll back to.
	Store *store.Store
	// DB schema-validates every snapshot the lifecycle decodes. Pass the
	// serving database.
	DB *table.DB
	// Canary parameterizes the gate.
	Canary CanaryConfig
}

// Publication describes one admitted model: its registry info and the
// canary run that admitted it.
type Publication struct {
	Info   ModelInfo    `json:"info"`
	Canary CanaryResult `json:"canary"`
}

// PublishSpec is one candidate model offered to Publish: the bytes of a
// snapshot, never a model. The lifecycle decodes them itself, so what it
// judges, serves and persists are the same bytes.
type PublishSpec struct {
	// Name is the registry name to publish under. Required.
	Name string
	// Source labels the origin in ModelInfo ("boot", a file path, ...).
	Source string
	// Snapshot is the serialized model (SaveJSON output). Required.
	Snapshot []byte
	// MakeDefault promotes the model to the default on admission; the
	// canary then also compares it against the incumbent default, and a
	// store persists it. A publish under the live model's name replaces the
	// default, so it is one whether or not this is set.
	MakeDefault bool
}

// liveModel tracks the default the lifecycle last admitted: what a rollback
// quarantines and what a candidate default is compared against.
type liveModel struct {
	name     string
	gen      uint64 // store generation, 0 without a store
	bare     estimator.Estimator
	baseline CanaryResult // the admitting run, re-run on a workload swap
}

// Lifecycle guards the registry. Create with NewLifecycle; pass it to
// serve.Config so the server adopts its metrics, publishes loads through it
// and, when it has a store, exposes rollback.
type Lifecycle struct {
	reg     *Registry
	st      *store.Store
	db      *table.DB
	canary  CanaryConfig
	metrics *Metrics // created here, so verdicts reached before serve.New count

	mu   sync.Mutex
	live liveModel
}

// NewLifecycle validates cfg and returns a lifecycle.
func NewLifecycle(cfg LifecycleConfig) (*Lifecycle, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: LifecycleConfig.Registry is required")
	}
	canary := cfg.Canary.withDefaults()
	m := newMetrics()
	m.canaryMaxMedian, m.canaryMaxP95 = canary.MaxMedian, canary.MaxP95
	return &Lifecycle{reg: cfg.Registry, st: cfg.Store, db: cfg.DB, canary: canary, metrics: m}, nil
}

// lifecycleOf is the lifecycle a server publishes through: cfg's own, or for
// a Config that names none, one with no store and no canary workload — every
// model is admitted ("no canary workload configured"), nothing is durable,
// and there is nothing to roll back to.
func lifecycleOf(cfg Config) *Lifecycle {
	if cfg.Lifecycle != nil {
		return cfg.Lifecycle
	}
	lc, _ := NewLifecycle(LifecycleConfig{Registry: cfg.Registry, DB: cfg.DB}) // New has checked the registry
	return lc
}

// Store returns the backing store (nil when none).
func (lc *Lifecycle) Store() *store.Store { return lc.st }

// SetCanaryWorkload swaps the canary gate's workload — the traffic-derived
// refresh path: as the feedback journal rotates segments, the daemon
// derives a canary set from recent real traffic and installs it here, so
// publish gates score candidates on what production actually asks rather
// than on a synthetic set frozen at boot. An empty workload is refused (it
// would disable the gate).
//
// The live model, when present, is immediately re-scored on the new
// workload and its baseline replaced: incumbent-relative publish checks
// compare medians across runs, which is only meaningful when both ran the
// same queries. A live model that fails outright on the new workload keeps
// the old baseline and workload, and the error says so — installing a
// workload the incumbent cannot pass would refuse every candidate judged
// against it.
func (lc *Lifecycle) SetCanaryWorkload(ctx context.Context, ws workload.Set) error {
	if len(ws) == 0 {
		return fmt.Errorf("serve: refusing an empty canary workload")
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	next := lc.canary
	next.Workload = ws
	if lc.live.bare != nil {
		res := RunCanary(ctx, lc.live.bare, next, nil)
		if !res.Pass {
			if ctx.Err() != nil {
				return fmt.Errorf("serve: canary workload swap interrupted: %w", ctx.Err())
			}
			return fmt.Errorf("serve: live model fails on the proposed canary workload (%s); keeping the current one", res.Reason)
		}
		lc.live.baseline = res
		canary := res
		lc.reg.UpdateInfo(lc.live.name, func(info *ModelInfo) { info.Canary = &canary }) //nolint:errcheck // entry may have been replaced concurrently
	}
	lc.canary = next
	return nil
}

// Publish decodes spec.Snapshot, runs the model through the canary gate and,
// on admission, registers it; a model that becomes the default is persisted
// to the store first, when there is one. Bytes that do not decode into a model
// of the serving schema are refused with an error wrapping ErrBadSnapshot, a
// model the canary refuses with one wrapping ErrCanaryRejected (the returned
// Publication still carries the failing canary result); either way nothing is
// registered or persisted.
func (lc *Lifecycle) Publish(ctx context.Context, spec PublishSpec) (Publication, error) {
	if spec.Name == "" {
		return Publication{}, fmt.Errorf("serve: publish needs a name")
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()

	// Registering under the live model's name replaces the default, so it is
	// judged, tracked and rolled back as a new default.
	spec.MakeDefault = spec.MakeDefault || spec.Name == lc.live.name
	var incumbent *CanaryResult
	if spec.MakeDefault && lc.live.bare != nil {
		b := lc.live.baseline
		incumbent = &b
	}
	return lc.admitLocked(ctx, spec, 0, incumbent)
}

// admitLocked is the one step from snapshot bytes to the registry: decode and
// schema-check, canary, persist, register. gen is the store generation the
// bytes were read from, 0 for a publish. A publish that makes the default is
// persisted as a new generation (when there is a store) before it serves; one
// that does not is registered without one, so the store holds only defaults
// and neither a rollback nor a restart can promote a model that never was one.
// incumbent, when non-nil, is the baseline the candidate must stay within
// slack of. A failure registers nothing, and its error wraps ErrBadSnapshot or
// ErrCanaryRejected when the model is at fault.
func (lc *Lifecycle) admitLocked(ctx context.Context, spec PublishSpec, gen uint64, incumbent *CanaryResult) (Publication, error) {
	est, kind, err := estimator.LoadEstimator(bytes.NewReader(spec.Snapshot), lc.db)
	if err != nil {
		return Publication{}, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	res := RunCanary(ctx, est, lc.canary, incumbent)
	if !res.Pass && ctx.Err() != nil {
		// The run was cut short by cancellation, not failed by the model:
		// report the interruption, not a canary verdict.
		return Publication{Canary: res}, fmt.Errorf("serve: canary interrupted: %w", ctx.Err())
	}
	lc.metrics.observeCanary(res.Pass)
	if !res.Pass {
		return Publication{Canary: res}, fmt.Errorf("%w: %s", ErrCanaryRejected, res.Reason)
	}
	if gen == 0 && spec.MakeDefault && lc.st != nil {
		g, err := lc.st.Put(spec.Name, "canary: "+res.Reason, spec.Snapshot)
		if err != nil {
			// Not durable ⇒ not published: a default that cannot be rolled
			// back to must not displace one that can.
			return Publication{Canary: res}, fmt.Errorf("serve: persist admitted model: %w", err)
		}
		gen = g.Number
	}
	return lc.registerLocked(spec.Name, est, kind, spec.Source, gen, res, spec.MakeDefault)
}

// Recover restores the newest store generation that both loads and passes
// the canary, registering it under name. Generations that fail either
// check are quarantined and the scan continues downward. ok is false when
// the store is missing or holds no admissible generation — the caller
// should then train or load a model some other way.
func (lc *Lifecycle) Recover(ctx context.Context, name string, makeDefault bool) (Publication, bool, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	pub, err := lc.promoteFromStoreLocked(ctx, name, makeDefault)
	if err != nil {
		if errors.Is(err, ErrNoRollbackTarget) {
			return Publication{}, false, nil
		}
		return Publication{}, false, err
	}
	return pub, true, nil
}

// Rollback quarantines the live generation and promotes the newest prior
// generation that loads and passes the canary. reason is recorded in the
// rollback metrics trail (last_rollback_reason on /metrics). Serving is never interrupted: until the
// replacement is registered the incumbent keeps answering, and if no
// replacement exists the incumbent stays (with the error telling the
// caller so).
func (lc *Lifecycle) Rollback(ctx context.Context, reason string) (Publication, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.rollbackLocked(ctx, reason)
}

func (lc *Lifecycle) rollbackLocked(ctx context.Context, reason string) (Publication, error) {
	if lc.st == nil {
		return Publication{}, fmt.Errorf("serve: rollback needs a snapshot store")
	}
	if lc.live.name == "" {
		return Publication{}, fmt.Errorf("serve: no lifecycle-managed model to roll back")
	}
	if err := ctx.Err(); err != nil {
		// Canceled before any destructive step (e.g. the client behind
		// POST /v1/models/rollback disconnected): leave everything in place.
		return Publication{}, fmt.Errorf("serve: rollback aborted: %w", err)
	}
	if err := lc.quarantineLocked(lc.live.gen); err != nil {
		return Publication{}, err
	}
	pub, err := lc.promoteFromStoreLocked(ctx, lc.live.name, true)
	if err != nil {
		return Publication{}, err
	}
	lc.metrics.observeRollback(time.Now(), reason)
	return pub, nil
}

// promoteFromStoreLocked walks the store newest-first and admits the first
// generation that reads, decodes and passes the canary, judged on its own: the
// model it replaces is gone or distrusted. A generation that fails is
// quarantined and the walk goes on.
func (lc *Lifecycle) promoteFromStoreLocked(ctx context.Context, name string, makeDefault bool) (Publication, error) {
	if lc.st == nil {
		return Publication{}, ErrNoRollbackTarget
	}
	for {
		g, ok := lc.st.Latest()
		if !ok {
			return Publication{}, ErrNoRollbackTarget
		}
		payload, man, err := lc.st.Read(g.Number)
		if err == nil {
			source := fmt.Sprintf("store:gen-%d", g.Number)
			if man.Name != "" && man.Name != name {
				source += " (published as " + man.Name + ")"
			}
			spec := PublishSpec{Name: name, Source: source, Snapshot: payload, MakeDefault: makeDefault}
			pub, err := lc.admitLocked(ctx, spec, g.Number, nil)
			if err == nil {
				return pub, nil
			}
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrCanaryRejected) {
				// Not the model's fault — a canceled canary above all:
				// quarantining here would burn every valid generation on a
				// client disconnect or shutdown. Leave the store untouched.
				return Publication{}, fmt.Errorf("serve: generation %d: %w", g.Number, err)
			}
		}
		// Unreadable (bit rot since Open), undecodable or refused.
		if qerr := lc.quarantineLocked(g.Number); qerr != nil {
			return Publication{}, qerr
		}
	}
}

// quarantineLocked retires gen from the store's valid set. An unknown
// generation counts as already quarantined; any other failure (the rename
// hit an I/O error, say) is returned so callers abort instead of
// re-selecting the same generation forever — Latest would keep returning it.
func (lc *Lifecycle) quarantineLocked(gen uint64) error {
	err := lc.st.Quarantine(gen)
	switch {
	case err == nil:
		lc.metrics.observeQuarantine()
		return nil
	case errors.Is(err, store.ErrUnknownGeneration):
		return nil
	default:
		return fmt.Errorf("serve: quarantine generation %d: %w", gen, err)
	}
}

// registerLocked publishes an admitted model into the registry and updates
// the live tracking when it becomes the default.
func (lc *Lifecycle) registerLocked(name string, est estimator.Estimator, kind, source string, gen uint64, res CanaryResult, makeDefault bool) (Publication, error) {
	canary := res
	info, err := lc.reg.Register(name, est, ModelInfo{
		Kind:            kind,
		Source:          source,
		StoreGeneration: gen,
		Canary:          &canary,
	})
	if err != nil {
		return Publication{}, err
	}
	if makeDefault {
		if err := lc.reg.SetDefault(name); err != nil {
			return Publication{}, err
		}
		lc.live = liveModel{name: name, gen: gen, bare: est, baseline: res}
		lc.metrics.storeGeneration.Store(gen)
	}
	return Publication{Info: info, Canary: res}, nil
}
