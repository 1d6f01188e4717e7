package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/store"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// Lifecycle is the guarded path between a trained model and the registry:
// every candidate must clear the canary gate before it is registered, a
// passing candidate is durably persisted to the crash-safe store before it
// takes traffic, and the reverse path — quarantine a degraded generation,
// roll the registry back to the previous good one — is the same machinery
// run in the other direction. ProbeEvery drives the reverse path
// automatically; POST /v1/models/rollback drives it manually.
//
// Locking: one mutex serializes lifecycle transitions (publish, probe,
// rollback). Canary runs execute under it — transitions are rare and must
// not interleave — while estimate traffic keeps resolving models lock-free
// through the registry snapshot.

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
	// canary then also compares it against the incumbent default.
	MakeDefault bool
}

// liveModel tracks the store-backed default the probe loop watches.
type liveModel struct {
	name     string
	gen      uint64 // store generation, 0 when not persisted
	bare     estimator.Estimator
	baseline CanaryResult // the admitting run; probes compare against it
}

// Lifecycle guards the registry. Create with NewLifecycle; pass it to
// serve.Config so the server binds its metrics and exposes rollback.
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
// publish gates and supervisor probes score candidates on what production
// actually asks rather than on a synthetic set frozen at boot. An empty
// workload is refused (it would disable the gate).
//
// The live model, when present, is immediately re-scored on the new
// workload and its baseline replaced: Probe and incumbent-relative publish
// checks compare medians across runs, which is only meaningful when both
// ran the same queries. A live model that fails outright on the new
// workload keeps the old baseline and workload, and the error says so —
// installing a workload the incumbent cannot pass would make every
// subsequent probe a rollback.
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

// CanaryWorkloadSize reports the current gate workload's size (status pages).
func (lc *Lifecycle) CanaryWorkloadSize() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.canary.Workload)
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

	var incumbent *CanaryResult
	if spec.MakeDefault && lc.live.bare != nil {
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
	pub, err := lc.registerLocked(spec.Name, spec.Est, spec.Kind, spec.Source, gen, res, spec.MakeDefault)
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
// rollback metrics trail. Serving is never interrupted: until the
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
	lc.metrics.observeRollback(time.Now())
	_ = reason // recorded by callers' logs; metrics count the event itself
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

// ProbeOutcome reports one probe of the live model.
type ProbeOutcome struct {
	// Probed is false when no lifecycle-managed model is live.
	Probed bool `json:"probed"`
	// Result is the live model's canary run.
	Result CanaryResult `json:"result"`
	// RolledBack reports whether the probe quarantined the live model and
	// promoted a prior generation.
	RolledBack bool `json:"rolledBack"`
	// RolledBackTo is the promoted publication when RolledBack.
	RolledBackTo Publication `json:"rolledBackTo,omitempty"`
}

// Probe re-runs the canary against the live model's bare estimator —
// bypassing any resilience wrapping, whose fallbacks would mask a decayed
// model — and, on failure, quarantines its generation and rolls back to
// the newest prior generation that still passes. The registry's published
// canary status is refreshed either way.
func (lc *Lifecycle) Probe(ctx context.Context) (ProbeOutcome, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.live.bare == nil {
		return ProbeOutcome{}, nil
	}
	baseline := lc.live.baseline
	res := RunCanary(ctx, lc.live.bare, lc.canary, &baseline)
	if !res.Pass && ctx.Err() != nil {
		// An interrupted probe (probe loop stopping, caller gone) says
		// nothing about the model: report the cancellation without recording
		// a verdict or rolling anything back.
		return ProbeOutcome{Probed: true, Result: res}, fmt.Errorf("serve: probe interrupted: %w", ctx.Err())
	}
	lc.metrics.observeCanary(res.Pass)
	out := ProbeOutcome{Probed: true, Result: res}
	canary := res
	lc.reg.UpdateInfo(lc.live.name, func(info *ModelInfo) { info.Canary = &canary }) //nolint:errcheck // entry may have been replaced concurrently
	if res.Pass {
		return out, nil
	}
	pub, err := lc.rollbackLocked(ctx, "auto: "+res.Reason)
	if err != nil {
		// Nothing to fall back to: the incumbent keeps serving (its
		// resilience chain still guards individual estimates) and the
		// failed probe stays visible in /v1/models.
		return out, fmt.Errorf("serve: live model failed its canary (%s) and rollback failed: %w", res.Reason, err)
	}
	out.RolledBack = true
	out.RolledBackTo = pub
	return out, nil
}

// ProbeEvery re-runs Probe every interval (which must be positive) on a
// goroutine of its own until ctx ends, so a model that degrades after publish
// — drifted data, a dependency gone bad, memory corruption — is caught by
// the gate that admitted it, quarantined and rolled back without an operator.
// All judgement lives in Probe, which serializes with every other lifecycle
// transition; the loop provides only the clock and logs what deserves a
// human's attention. The returned stop cancels an in-flight canary run and
// waits for the goroutine; it is safe to call more than once.
func (lc *Lifecycle) ProbeEvery(ctx context.Context, interval time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			out, err := lc.Probe(ctx)
			switch {
			case err != nil:
				log.Printf("serve: supervisor probe: %v", err)
			case out.RolledBack:
				log.Printf("serve: supervisor rolled back to generation %d: %s",
					out.RolledBackTo.Info.StoreGeneration, out.Result.Reason)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}
