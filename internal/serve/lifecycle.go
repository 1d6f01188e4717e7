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

// Lifecycle is the one path between a trained model and the registry: every
// candidate must clear the canary gate before it is registered, a passing
// candidate is durably persisted to the crash-safe store (when there is one)
// before it takes traffic, and the reverse path — quarantine the live
// generation, roll the registry back to the previous good one — is the same
// machinery run in the other direction, on POST /v1/models/rollback. A model
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

// ErrNoRollbackTarget is returned when no prior valid generation exists.
var ErrNoRollbackTarget = errors.New("serve: no valid generation to roll back to")

// LifecycleConfig assembles a Lifecycle.
type LifecycleConfig struct {
	// Registry is where admitted models are published. Required.
	Registry *Registry
	// Store persists admitted snapshots and feeds recovery/rollback. May be
	// nil: the canary gate still applies, but nothing is durable and
	// rollback has nothing to roll back to.
	Store *store.Store
	// DB schema-validates snapshots restored from the store. Pass the
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

// PublishSpec is one candidate model offered to Publish.
type PublishSpec struct {
	// Name is the registry name to publish under. Required.
	Name string
	// Est is the bare (unwrapped) estimator; the canary probes it directly
	// so a resilience chain cannot mask a bad model with good fallbacks.
	Est estimator.Estimator
	// Kind is the snapshot kind LoadEstimator reported ("local"), or the
	// caller's tag for an estimator that never was a snapshot.
	Kind string
	// Source labels the origin in ModelInfo ("boot", a file path, ...).
	Source string
	// Snapshot, when non-nil, is the serialized model (SaveJSON output)
	// persisted to the store on admission.
	Snapshot []byte
	// MakeDefault promotes the model to the default on admission; the
	// canary then also compares it against the incumbent default. A publish
	// under the live model's name replaces the default, so it is one whether
	// or not this is set.
	MakeDefault bool
}

// liveModel tracks the default the lifecycle last admitted: what a rollback
// quarantines and what a candidate default is compared against.
type liveModel struct {
	name     string
	gen      uint64 // store generation, 0 when not persisted
	bare     estimator.Estimator
	baseline CanaryResult // the admitting run, re-run on a workload swap
}

// Lifecycle guards the registry. Create with NewLifecycle; pass it to
// serve.Config so the server binds its metrics, publishes loads through it
// and, when it has a store, exposes rollback.
type Lifecycle struct {
	reg     *Registry
	st      *store.Store
	db      *table.DB
	canary  CanaryConfig
	metrics *Metrics // nil until bound; observers are nil-safe

	mu   sync.Mutex
	live liveModel
}

// NewLifecycle validates cfg and returns a lifecycle.
func NewLifecycle(cfg LifecycleConfig) (*Lifecycle, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: LifecycleConfig.Registry is required")
	}
	return &Lifecycle{
		reg:    cfg.Registry,
		st:     cfg.Store,
		db:     cfg.DB,
		canary: cfg.Canary.withDefaults(),
	}, nil
}

// lifecycleOf is the lifecycle a server publishes through: cfg's own, or for
// a Config that names none, one with no store and no canary workload — every
// model is admitted ("no canary workload configured"), nothing is durable,
// and there is nothing to roll back to.
func lifecycleOf(cfg Config) *Lifecycle {
	if cfg.Lifecycle != nil {
		return cfg.Lifecycle
	}
	return &Lifecycle{reg: cfg.Registry, db: cfg.DB, canary: CanaryConfig{}.withDefaults()}
}

// bindMetrics attaches the server's metrics (serve.New calls this).
func (lc *Lifecycle) bindMetrics(m *Metrics) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.metrics = m
	m.setCanaryThresholds(lc.canary.MaxMedian, lc.canary.MaxP95)
	m.setStoreGeneration(lc.live.gen)
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

// Publish runs spec.Est through the canary gate and, on admission,
// persists the snapshot (when given and a store is configured) and
// registers the model. On rejection nothing is registered or persisted and
// the returned error wraps ErrCanaryRejected; the returned Publication
// still carries the failing canary result.
func (lc *Lifecycle) Publish(ctx context.Context, spec PublishSpec) (Publication, error) {
	if spec.Name == "" || spec.Est == nil {
		return Publication{}, fmt.Errorf("serve: publish needs a name and an estimator")
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()

	// Registering under the live model's name replaces the default, so it is
	// judged, tracked and rolled back as a new default.
	makeDefault := spec.MakeDefault || spec.Name == lc.live.name
	var incumbent *CanaryResult
	if makeDefault && lc.live.bare != nil {
		b := lc.live.baseline
		incumbent = &b
	}
	res := RunCanary(ctx, spec.Est, lc.canary, incumbent)
	if !res.Pass && ctx.Err() != nil {
		// The run was cut short by cancellation, not failed by the model:
		// report the interruption, not a canary verdict.
		return Publication{Canary: res}, fmt.Errorf("serve: canary interrupted: %w", ctx.Err())
	}
	lc.metrics.observeCanary(res.Pass)
	if !res.Pass {
		return Publication{Canary: res}, fmt.Errorf("%w: %s", ErrCanaryRejected, res.Reason)
	}

	var gen uint64
	if lc.st != nil && spec.Snapshot != nil {
		g, err := lc.st.Put(spec.Name, spec.Kind, "canary: "+res.Reason, spec.Snapshot)
		if err != nil {
			// Not durable ⇒ not published: a model that cannot be rolled
			// back to must not displace one that can.
			return Publication{Canary: res}, fmt.Errorf("serve: persist admitted model: %w", err)
		}
		gen = g.Number
	}
	pub, err := lc.registerLocked(spec.Name, spec.Est, spec.Kind, spec.Source, gen, res, makeDefault)
	if err != nil {
		return Publication{Canary: res}, err
	}
	return pub, nil
}

// Recover restores the newest store generation that both loads and passes
// the canary, registering it under name. Generations that fail either
// check are quarantined and the scan continues downward. ok is false when
// the store is missing or holds no admissible generation — the caller
// should then train or load a model some other way.
func (lc *Lifecycle) Recover(ctx context.Context, name string, makeDefault bool) (Publication, bool, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	pub, err := lc.promoteFromStoreLocked(ctx, name, makeDefault, nil)
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
	if lc.live.gen != 0 {
		if err := lc.quarantineLocked(lc.live.gen); err != nil {
			return Publication{}, err
		}
	}
	pub, err := lc.promoteFromStoreLocked(ctx, lc.live.name, true, nil)
	if err != nil {
		return Publication{}, err
	}
	lc.metrics.observeRollback(time.Now(), reason)
	return pub, nil
}

// promoteFromStoreLocked walks the store newest-first: load, schema-check,
// canary. Failures are quarantined and the walk continues; success
// registers and returns. incumbent (usually nil here: the model being
// replaced is gone or distrusted) feeds the canary comparison.
func (lc *Lifecycle) promoteFromStoreLocked(ctx context.Context, name string, makeDefault bool, incumbent *CanaryResult) (Publication, error) {
	if lc.st == nil {
		return Publication{}, ErrNoRollbackTarget
	}
	for {
		g, ok := lc.st.Latest()
		if !ok {
			return Publication{}, ErrNoRollbackTarget
		}
		payload, man, err := lc.st.Read(g.Number)
		if err != nil {
			// Bit rot between Open and now; quarantine and keep walking.
			if qerr := lc.quarantineLocked(g.Number); qerr != nil {
				return Publication{}, qerr
			}
			continue
		}
		est, kind, err := estimator.LoadEstimator(bytes.NewReader(payload), lc.db)
		if err != nil {
			if qerr := lc.quarantineLocked(g.Number); qerr != nil {
				return Publication{}, qerr
			}
			continue
		}
		res := RunCanary(ctx, est, lc.canary, incumbent)
		if !res.Pass && ctx.Err() != nil {
			// The canary was cut short by cancellation, not failed by the
			// model — quarantining here would burn every valid generation on
			// a transient client disconnect or shutdown. Abort the walk and
			// leave the store untouched.
			return Publication{}, fmt.Errorf("serve: canary for generation %d interrupted: %w", g.Number, ctx.Err())
		}
		lc.metrics.observeCanary(res.Pass)
		if !res.Pass {
			if qerr := lc.quarantineLocked(g.Number); qerr != nil {
				return Publication{}, qerr
			}
			continue
		}
		source := fmt.Sprintf("store:gen-%d", g.Number)
		if man.Name != "" && man.Name != name {
			source += " (published as " + man.Name + ")"
		}
		return lc.registerLocked(name, est, kind, source, g.Number, res, makeDefault)
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
		lc.metrics.setStoreGeneration(gen)
	}
	return Publication{Info: info, Canary: res}, nil
}
