package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/store"
	"qfe/internal/table"
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
// published, so the verdict that admitted it stands. The workload it is
// judged on is picked at the door too (see doorLocked): a sample of the
// journal's labeled traffic when the live model passes it, else the held-out
// set.
//
// Locking: one mutex serializes lifecycle transitions (publish, recover,
// rollback). Canary runs execute under it — transitions are rare and must
// not interleave — while estimate traffic keeps resolving models lock-free
// through the registry snapshot.

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
	// Journal, when non-nil, is the feedback journal whose sealed, labeled
	// traffic a model may be judged on instead of Canary.Workload (see
	// doorLocked). The lifecycle only reads it; a server built over the
	// lifecycle reports it (journal_* in /metrics, GET /v1/journal).
	Journal *journal.Journal
	// DB schema-validates every snapshot the lifecycle decodes, and binds the
	// traffic it samples. Pass the serving database.
	DB *table.DB
	// Canary parameterizes the gate; its Workload is the held-out set.
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
// quarantines, what a candidate default is compared against, and what decides
// whether the traffic sample is fit to judge on.
type liveModel struct {
	name string
	gen  uint64 // store generation, 0 without a store
	bare estimator.Estimator
}

// Lifecycle guards the registry. Create with NewLifecycle; pass it to
// serve.Config so the server adopts its metrics, publishes loads through it
// and, when it has a store, exposes rollback.
type Lifecycle struct {
	reg     *Registry
	st      *store.Store
	jnl     *journal.Journal
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
	m.canaryMaxMedian, m.canaryMaxP95, m.jnl = canary.MaxMedian, canary.MaxP95, cfg.Journal
	return &Lifecycle{reg: cfg.Registry, st: cfg.Store, jnl: cfg.Journal, db: cfg.DB, canary: canary, metrics: m}, nil
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

// door is what a transition judges a model on: the canary configuration
// with the workload doorLocked picked, and the live model's run on it.
type door struct {
	canary CanaryConfig
	live   *CanaryResult // nil without a live model
	note   string        // why a traffic sample was passed over, "" otherwise
}

// doorLocked picks the workload a model is judged on now. It samples the
// journal's sealed, labeled traffic that binds against the serving database
// (replay.TrafficCanary), as many queries as the held-out set holds — so an
// empty held-out set, the gate disabled, samples nothing — and uses the sample
// when the live model passes it: a workload the incumbent fails would refuse
// every candidate judged against it. Otherwise, and with no live model, no
// journal or no labeled traffic, it uses the held-out set. The live model is
// scored on the set picked, and is what a candidate default must stay within
// slack of.
func (lc *Lifecycle) doorLocked(ctx context.Context) door {
	d := door{canary: lc.canary}
	if lc.live.bare == nil {
		return d
	}
	if lc.jnl != nil && len(lc.canary.Workload) > 0 {
		recs, err := lc.jnl.ReadSealed()
		if err != nil {
			d.note = fmt.Sprintf("held-out set: traffic unreadable (%v)", err)
		} else if ws := replay.TrafficCanary(recs, len(lc.canary.Workload), lc.db); len(ws) > 0 {
			traffic := lc.canary
			traffic.Workload = ws
			res := RunCanary(ctx, lc.live.bare, traffic, nil)
			if res.Pass {
				return door{canary: traffic, live: &res}
			}
			d.note = fmt.Sprintf("held-out set: the live model fails the traffic sample (%s)", res.Reason)
		}
	}
	res := RunCanary(ctx, lc.live.bare, d.canary, nil)
	d.live = &res
	return d
}

// Publish decodes spec.Snapshot, runs the model through the canary gate and,
// on admission, registers it; a model that becomes the default is persisted
// to the store first, when there is one. Bytes that do not decode into a model
// of the serving schema are refused with an error wrapping ErrBadSnapshot, a
// model the canary refuses with one wrapping ErrCanaryRejected (the returned
// Publication still carries the failing canary result); either way nothing is
// registered or persisted. A candidate default is also held to the live
// model's run on the same workload.
func (lc *Lifecycle) Publish(ctx context.Context, spec PublishSpec) (Publication, error) {
	if spec.Name == "" {
		return Publication{}, fmt.Errorf("serve: publish needs a name")
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()

	// Registering under the live model's name replaces the default, so it is
	// judged, tracked and rolled back as a new default.
	spec.MakeDefault = spec.MakeDefault || spec.Name == lc.live.name
	d := lc.doorLocked(ctx)
	if !spec.MakeDefault {
		d.live = nil
	}
	return lc.admitLocked(ctx, spec, 0, d)
}

// admitLocked is the one step from snapshot bytes to the registry: decode and
// schema-check, canary, persist, register. gen is the store generation the
// bytes were read from, 0 for a publish. A publish that makes the default is
// persisted as a new generation (when there is a store) before it serves; one
// that does not is registered without one, so the store holds only defaults
// and neither a rollback nor a restart can promote a model that never was one.
// The model is judged on d's workload and, when d.live is non-nil, must stay
// within slack of it. A failure registers nothing, and its error wraps
// ErrBadSnapshot or ErrCanaryRejected when the model is at fault.
func (lc *Lifecycle) admitLocked(ctx context.Context, spec PublishSpec, gen uint64, d door) (Publication, error) {
	est, kind, err := estimator.LoadEstimator(bytes.NewReader(spec.Snapshot), lc.db)
	if err != nil {
		return Publication{}, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	res := RunCanary(ctx, est, d.canary, d.live)
	if d.note != "" {
		res.Reason += "; " + d.note
	}
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
	pub, err := lc.promoteFromStoreLocked(ctx, name, makeDefault, lc.doorLocked(ctx))
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
		return Publication{}, fmt.Errorf("serve: no lifecycle-managed model to roll back: %w", ErrNoRollbackTarget)
	}
	// The workload is picked while the live model still stands to say
	// whether the traffic sample is fit to judge on.
	d := lc.doorLocked(ctx)
	if err := ctx.Err(); err != nil {
		// Canceled before any destructive step (e.g. the client behind
		// POST /v1/models/rollback disconnected): leave everything in place.
		return Publication{}, fmt.Errorf("serve: rollback aborted: %w", err)
	}
	if err := lc.quarantineLocked(lc.live.gen); err != nil {
		return Publication{}, err
	}
	pub, err := lc.promoteFromStoreLocked(ctx, lc.live.name, true, d)
	if err != nil {
		return Publication{}, err
	}
	lc.metrics.observeRollback(time.Now(), reason)
	return pub, nil
}

// promoteFromStoreLocked walks the store newest-first and admits the first
// generation that reads, decodes and passes the canary on d's workload, judged
// on its own: the model it replaces is gone or distrusted. A generation that
// fails is quarantined and the walk goes on.
func (lc *Lifecycle) promoteFromStoreLocked(ctx context.Context, name string, makeDefault bool, d door) (Publication, error) {
	if lc.st == nil {
		return Publication{}, ErrNoRollbackTarget
	}
	d.live = nil
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
			pub, err := lc.admitLocked(ctx, spec, g.Number, d)
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
		lc.live = liveModel{name: name, gen: gen, bare: est}
		lc.metrics.storeGeneration.Store(gen)
	}
	return Publication{Info: info, Canary: res}, nil
}
