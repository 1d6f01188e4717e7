// Command cardestd is the long-lived estimation daemon: it serves the
// trained (QFT × model) estimators of this reproduction over an HTTP JSON
// API, with a hot-swappable model registry, an estimate cache keyed on the
// query text, admission control, and graceful drain (see internal/serve). A
// single query is estimated on its own request goroutine; a client batch fans
// out over -workers goroutines.
//
// Usage:
//
//	cardestd [-addr :8482] [-load name=path[,name=path...]] [-default name]
//	         [-qft conjunctive] [-model GB] [-train 2000] [-rows 20000]
//	         [-entries 32] [-seed 1] [-workers 0] [-save file]
//	         [-timeout 100ms] [-max-inflight 64]
//	         [-drain-timeout 10s] [-smoke] [-pprof addr]
//	         [-cache-entries 4096]
//	         [-store dir] [-canary 200] [-canary-median 10] [-canary-p95 100]
//	         [-probe-interval 30s] [-model-root dir]
//	         [-retrain] [-retrain-cooldown 1m] [-drift-delta 0.05]
//	         [-drift-lambda 25] [-drift-min-samples 50] [-drift-window 200]
//	         [-drift-ood-fraction 0.25]
//	         [-journal dir] [-journal-segment-size 4194304]
//	         [-journal-retention 8]
//
// Without -load, the daemon builds the synthetic forest database and trains
// a model at boot (same flags as cardest), registered as "boot". With
// -load, each name=path pair is restored via the persistence layer (local
// snapshots, the one kind any binary writes); the database is still built so
// string literals bind and snapshots schema-validate. Further models can be loaded
// at runtime via POST /v1/models/load without dropping in-flight requests.
//
// -store arms the crash-safe model lifecycle (see internal/store and
// internal/serve): admitted models are persisted as checksummed, fsync'd
// generations under the directory; at boot the newest valid generation is
// recovered instead of retraining (torn or corrupt generations are
// quarantined and skipped); every publish — boot, recovery, or
// POST /v1/models/load — must clear a canary gate over -canary held-out
// labeled queries (median/p95 q-error ceilings -canary-median/-canary-p95,
// rejected loads get 409); a background loop re-probes the live model
// every -probe-interval (0 disables it) and, on degradation, quarantines its
// generation and rolls the registry back to the previous good one
// automatically.
// POST /v1/models/rollback does the same on demand.
//
// POST /v1/models/load is confined to -model-root (default: the -store
// directory, else the working directory): paths that escape it via ".." or
// an absolute prefix elsewhere are refused with 400.
//
// -retrain (which requires -store) closes the self-healing loop described
// in internal/drift and internal/trainer: a Page-Hinkley detector over the
// log2 q-error of /v1/estimate feedback plus a column-domain detector over
// live predicate literals raise drift alarms; each alarm (rate-limited by
// -retrain-cooldown, and dropped while a retrain is already running) starts
// one retrain on the controller's goroutine: it relabels the training
// workload against the live data, refits the boot model family, and
// publishes only through the canary gate. The retrainer is the one part of
// the serving daemon that keeps the training queries (boot.go drops them
// otherwise: ~2.4 KB of bound AST each). Retraining is crash-safe —
// progress checkpoints ride the -store directory's fsync+rename machinery —
// and supervised: failed attempts restart with exponential backoff and
// quarantine after repeated failure, while a canary-rejected model is never
// retried (its detector rearms with a widened threshold instead).
// GET /v1/drift reports detector state, recent alarms, and the latest
// retrain; /metrics grows drift_* and retrain_* counters.
//
// The daemon memoizes estimates in a generation-scoped cache
// (-cache-entries, default 4096; 0 disables): requests are keyed on the live
// model's registry generation plus the SHA-256 of the query text as sent, so
// a repeated text is answered before it is parsed, concurrent identical
// queries collapse into a single model inference, and every publish or
// rollback invalidates the cache implicitly by changing the generation. A
// different spelling of a cached query (reordered conjuncts, "a > 5" for
// "a >= 6") is a different key: it recomputes, a few microseconds, and gets
// the same estimate. While a drift alarm is active (-retrain) the cache is
// bypassed. /metrics reports cache_hits, cache_misses, cache_evictions, and
// cache_collapsed. The journal still files every record under
// core.Fingerprint, the key of the featurization class; cmd/replay counts
// how many of a journal's records a class key would have served that a text
// key does not (its "traffic:" line).
//
// -journal arms the durable query-feedback journal (see internal/journal):
// every served estimate — SQL, fingerprint, estimate, client-reported
// actual (with an explicit has-actual bit), latency, model generation,
// timestamp — is appended to a segmented, CRC-framed, crash-recoverable
// log under the directory. The append path never blocks serving: a slow or
// wedged journal sheds records (journal_shed in /metrics) instead of
// stalling /v1/estimate. Segments rotate at -journal-segment-size bytes and
// the newest -journal-retention sealed segments survive GC. On rotation,
// when a lifecycle is armed, a deterministic reservoir sample of recent
// labeled traffic replaces the canary workload, so publish gates score
// candidates on what production actually asks. Journaled actuals also label
// retraining queries before the exact executor runs. GET /v1/journal
// reports stats and segments; /metrics grows journal_* counters; the
// cmd/replay CLI replays segments offline against saved models.
//
// Every registered model serves inside cli.Chain, as in cardest: learned →
// independence → row-count heuristic, so the daemon always answers; a query
// the model does not encode (an OR under -qft conjunctive) passes on without
// counting against the model's breaker. -timeout bounds each estimate (0 =
// none). SIGTERM/SIGINT drain gracefully: in-flight requests finish, new ones
// get 503, and the listener closes within -drain-timeout.
//
// -smoke runs a self-test instead of serving: boot on a random port, fire a
// single and a batched estimate, hot-list the models, scrape /metrics, and
// shut down cleanly; the exit code reports success.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"qfe/internal/cli"
	"qfe/internal/drift"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/serve"
	"qfe/internal/table"
	"qfe/internal/trainer"
)

type options struct {
	addr      string
	load      string
	defName   string
	qft       string
	model     string
	trainN    int
	rows      int
	entries   int
	seed      int64
	workers   int
	save      string
	timeout   time.Duration
	maxInFly  int
	drainTO   time.Duration
	smoke     bool
	pprofAddr string

	cacheEntries int

	storeDir     string
	canaryN      int
	canaryMedian float64
	canaryP95    float64
	probeEvery   time.Duration
	modelRoot    string

	retrain         bool
	retrainCooldown time.Duration
	driftDelta      float64
	driftLambda     float64
	driftMin        int
	driftWindow     int
	driftOOD        float64

	journalDir    string
	journalSegSz  int64
	journalRetain int
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2) // the flag set already printed the error and usage
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cardestd:", err)
		os.Exit(1)
	}
}

// parseFlags parses the daemon's command line. Unknown flags are an error —
// notably the retired -max-batch, -batch-delay and -fallback, so a deployment
// script that still sets them fails loudly instead of keeping a knob that
// does nothing.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("cardestd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8482", "listen address")
	fs.StringVar(&o.load, "load", "", "comma-separated name=path model snapshots to serve (default: train one at boot)")
	fs.StringVar(&o.defName, "default", "", "name of the default model (default: first registered)")
	fs.StringVar(&o.qft, "qft", "conjunctive", "featurization for the boot-trained model")
	fs.StringVar(&o.model, "model", "GB", "regressor for the boot-trained model: GB or NN; any other name is refused before the table is built")
	fs.IntVar(&o.trainN, "train", 2_000, "training queries for the boot-trained model")
	fs.IntVar(&o.rows, "rows", 20_000, "forest table rows")
	fs.IntVar(&o.entries, "entries", 32, "per-attribute feature entries (n)")
	fs.Int64Var(&o.seed, "seed", 1, "generation seed")
	fs.IntVar(&o.workers, "workers", 0, "goroutines for training and for each client batch (0 = one per logical CPU)")
	fs.StringVar(&o.save, "save", "", "write the boot-trained model snapshot to this file")
	fs.DurationVar(&o.timeout, "timeout", 100*time.Millisecond, "default per-request estimation deadline (0 = none); past it, or when the learned model fails or refuses a query, independence and then the row-count heuristic answer")
	fs.IntVar(&o.maxInFly, "max-inflight", 64, "concurrent estimate requests admitted before shedding with 429")
	fs.DurationVar(&o.drainTO, "drain-timeout", 10*time.Second, "graceful-drain deadline on SIGTERM")
	fs.BoolVar(&o.smoke, "smoke", false, "run the self-test (random port, batched estimate, metrics scrape) and exit")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty disables)")
	fs.IntVar(&o.cacheEntries, "cache-entries", 4096, "estimate cache capacity, keyed on (generation, query text): a repeated text is answered before the parse; 0 disables the cache, so every request pays parse+featurize+inference; under -journal or -retrain an entry also retains the bound AST of its miss (~2.4 KB, ~9 MB for a full 4096-entry cache)")
	fs.StringVar(&o.storeDir, "store", "", "crash-safe model store directory (enables canary-gated publishes, recovery, and rollback)")
	fs.IntVar(&o.canaryN, "canary", 200, "held-out labeled queries for the canary gate (0 disables the gate)")
	fs.Float64Var(&o.canaryMedian, "canary-median", 10, "canary ceiling on median q-error")
	fs.Float64Var(&o.canaryP95, "canary-p95", 100, "canary ceiling on p95 q-error")
	fs.DurationVar(&o.probeEvery, "probe-interval", 30*time.Second, "how often the supervisor re-probes the live model (0 disables)")
	fs.StringVar(&o.modelRoot, "model-root", "", "directory POST /v1/models/load may read snapshots from (default: -store dir, else the working directory)")
	fs.BoolVar(&o.retrain, "retrain", false, "arm self-healing retraining: drift alarms trigger supervised, checkpointed retrains published through the canary (requires -store); the retrainer keeps the -train queries' bound ASTs resident to relabel them (~2.4 KB each: ~4.8 MB live, about twice that resident, at the default 2 000)")
	fs.DurationVar(&o.retrainCooldown, "retrain-cooldown", time.Minute, "minimum gap between drift-triggered retrains")
	fs.Float64Var(&o.driftDelta, "drift-delta", 0.05, "Page-Hinkley tolerated drift of the mean log2 q-error")
	fs.Float64Var(&o.driftLambda, "drift-lambda", 25, "Page-Hinkley alarm threshold on accumulated deviation")
	fs.IntVar(&o.driftMin, "drift-min-samples", 50, "feedback observations before either drift detector may alarm")
	fs.IntVar(&o.driftWindow, "drift-window", 200, "recent numeric predicate literals the domain detector considers")
	fs.Float64Var(&o.driftOOD, "drift-ood-fraction", 0.25, "out-of-domain literal fraction that trips the domain detector")
	fs.StringVar(&o.journalDir, "journal", "", "feedback journal directory (enables durable traffic capture, GET /v1/journal, and traffic-derived canaries)")
	fs.Int64Var(&o.journalSegSz, "journal-segment-size", 4<<20, "journal segment rotation threshold in bytes")
	fs.IntVar(&o.journalRetain, "journal-retention", 8, "sealed journal segments kept before GC (negative keeps all)")
	return o, fs.Parse(args)
}

func run(o options, out io.Writer) error {
	if err := cli.ValidateWorkers(o.workers); err != nil {
		return err
	}
	if err := cli.ValidateModel(o.model); err != nil {
		return err
	}
	if o.retrain && o.storeDir == "" {
		return fmt.Errorf("-retrain requires -store (retrained models publish through the canary-gated lifecycle)")
	}
	b, err := boot(o, out)
	if err != nil {
		return err
	}
	d, err := arm(b, o, out)
	if err != nil {
		return err
	}
	defer d.close()
	if o.smoke {
		return smoke(d.srv, o.cacheEntries > 0, d.jnl != nil, out)
	}
	return listenAndServe(d.srv, o, out)
}

// daemon is the serving phase: the server and the background work armed
// around it. Nothing in it reaches back into the boot (boot.go): its closures
// name the table, the registry and the lifecycle, never the environment they
// were built from.
type daemon struct {
	srv        *serve.Server
	jnl        *journal.Journal    // -journal
	actuals    *replay.ActualIndex // -journal: the committed feedback's labels
	canary     *coalesced          // -journal with -store: the traffic-derived canary refresh
	ctrl       *trainer.Controller // -retrain
	stopProbes func()              // -store with a -probe-interval
}

// close stops the background work in the reverse of the order arm started
// it. The refresher is waited for after the journal's Close, so a rotation in
// its last flush is waited for too.
func (d *daemon) close() {
	if d.stopProbes != nil {
		d.stopProbes()
	}
	if d.ctrl != nil {
		d.ctrl.Close()
	}
	if d.jnl != nil {
		d.jnl.Close()
	}
	if d.canary != nil {
		d.canary.wait()
	}
}

// arm builds the serving phase over a finished boot: the feedback journal,
// the drift monitor and retrainer, the server, the supervisor's probes. On an
// error whatever it had started is stopped again.
func arm(b *booted, o options, out io.Writer) (_ *daemon, err error) {
	// d is a local, not the named result: `return nil, err` must not take
	// away what the deferred close and the closures below hold on to.
	d := &daemon{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	db, reg, lc := b.db, b.reg, b.lc

	modelRoot := o.modelRoot
	if modelRoot == "" {
		modelRoot = o.storeDir
	}
	if modelRoot == "" {
		modelRoot = "."
	}

	// -journal arms the durable feedback journal: every served estimate is
	// appended (shed-not-block) to a segmented CRC-framed log, recovered and
	// then every committed batch's actuals feed the retrainer's label index,
	// and — when there is a lifecycle whose gate to refresh — each segment
	// rotation derives a fresh canary workload from recent real traffic.
	if o.journalDir != "" {
		d.actuals = replay.NewActualIndex(0)
		jopts := journal.Options{
			SegmentBytes: o.journalSegSz,
			Retain:       o.journalRetain,
			// The index learns an actual when its record is durable, named
			// by the writer: live, it holds what a restart recovers.
			OnCommit: d.actuals.PutRecords,
		}
		if lc != nil {
			d.canary = &coalesced{fn: func() { refreshCanary(d.jnl, lc, db, o, out) }}
			// Rotation means a fresh slab of real traffic just sealed; canary
			// derivation reads every retained segment and re-estimates, so it
			// runs off the writer, and one at a time however fast segments seal.
			jopts.OnRotate = func(journal.SegmentInfo) { d.canary.trigger() }
		}
		d.jnl, err = journal.Open(o.journalDir, jopts)
		if err != nil {
			return nil, fmt.Errorf("open feedback journal: %w", err)
		}
		js := d.jnl.Stats()
		fmt.Fprintf(out, "feedback journal %s: %d sealed segment(s), %d torn tail(s) repaired, %d quarantined\n",
			o.journalDir, js.SealedSegments, js.TornTailsRepaired, js.SegmentsQuarantined)
		// Actuals that survived the restart label retraining for free.
		if recs, err := d.jnl.ReadSealed(); err == nil {
			d.actuals.PutRecords(recs)
			if n := d.actuals.Len(); n > 0 {
				fmt.Fprintf(out, "feedback journal: %d journaled actual(s) indexed for retraining\n", n)
			}
		}
	}
	jnl, actuals := d.jnl, d.actuals

	// -retrain closes the self-healing loop: drift detectors tap the
	// /v1/estimate feedback stream, an alarm starts a checkpointed retrain
	// on the controller's goroutine, and a retrained model takes traffic only
	// by clearing the same canary gate as any other publish.
	var mon *drift.Monitor
	if o.retrain {
		retCfg := trainer.RetrainConfig{
			DB:           db,
			Queries:      b.train,
			NewEstimator: func() (*estimator.Local, error) { return newLocal(db, o) },
			Lifecycle:    lc,
			Checkpoint:   trainer.NewStoreCheckpointer(lc.Store(), "retrain"),
			Workers:      o.workers,
		}
		if actuals != nil {
			// Journaled actuals label matching training queries for free
			// before the exact executor runs.
			retCfg.ActualLookup = actuals.Lookup
		}
		var ret *trainer.Retrainer
		if ret, err = trainer.NewRetrainer(retCfg); err != nil {
			return nil, err
		}
		qcfg := drift.DefaultQErrorConfig()
		qcfg.Delta, qcfg.Lambda, qcfg.MinSamples = o.driftDelta, o.driftLambda, o.driftMin
		dcfg := drift.DefaultDomainConfig()
		dcfg.Window, dcfg.MaxOODFraction, dcfg.MinSamples = o.driftWindow, o.driftOOD, o.driftMin
		mon, err = drift.NewMonitor(db, drift.MonitorConfig{
			QError:  qcfg,
			Domain:  dcfg,
			OnEvent: func(ev drift.Event) { d.ctrl.HandleEvent(ev) },
		})
		if err != nil {
			return nil, err
		}
		d.ctrl, err = trainer.NewController(trainer.ControllerConfig{
			Retrain:  ret.Run,
			Monitor:  mon,
			Cooldown: o.retrainCooldown,
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "self-healing retraining armed (lambda %.0f, window %d, cooldown %v)\n",
			o.driftLambda, o.driftWindow, o.retrainCooldown)
	}
	ctrl := d.ctrl

	if o.cacheEntries > 0 {
		fmt.Fprintf(out, "estimate cache: %d entries, keyed on (generation, query text)\n", o.cacheEntries)
	} else {
		fmt.Fprintln(out, "estimate cache: off")
	}

	cfg := serve.Config{
		Registry:       reg,
		DB:             db,
		Batcher:        serve.BatcherConfig{Workers: o.workers},
		MaxInFlight:    o.maxInFly,
		DefaultTimeout: o.timeout,
		ModelRoot:      modelRoot,
		Lifecycle:      lc,
		Cache:          serve.CacheConfig{Entries: o.cacheEntries},
	}
	if mon != nil {
		// While a drift alarm is pending, serving a memoized estimate would
		// hide exactly the staleness the detectors just flagged.
		cfg.CacheBypass = mon.AlarmActive
	}
	if mon != nil || jnl != nil {
		cfg.Feedback = feedbackHook(mon, jnl)
		cfg.ExtraMetrics = func() map[string]any {
			extra := map[string]any{}
			if mon != nil {
				for k, v := range mon.Counters() {
					extra[k] = v
				}
				for k, v := range ctrl.Counters() {
					extra[k] = v
				}
			}
			if jnl != nil {
				for k, v := range journalCounters(jnl) {
					extra[k] = v
				}
			}
			return extra
		}
	}
	cfg.StatusPages = map[string]func() any{}
	if mon != nil {
		cfg.StatusPages["/v1/drift"] = func() any {
			return map[string]any{"drift": mon.Status(), "retrain": ctrl.Status()}
		}
	}
	if jnl != nil {
		cfg.StatusPages["/v1/journal"] = func() any {
			return map[string]any{
				"dir":      jnl.Dir(),
				"stats":    jnl.Stats(),
				"segments": jnl.Segments(),
				"indexed":  actuals.Len(),
			}
		}
	}
	d.srv, err = serve.New(cfg)
	if err != nil {
		return nil, err
	}

	if lc != nil && o.probeEvery > 0 {
		d.stopProbes = lc.ProbeEvery(context.Background(), o.probeEvery)
		fmt.Fprintf(out, "supervisor probing the live model every %v\n", o.probeEvery)
	}
	return d, nil
}

// refreshCanary replaces the lifecycle's canary workload with a deterministic
// reservoir sample of the journal's sealed, labeled traffic — the queries that
// still bind against the live table — so publish gates score candidates on
// what production asks.
func refreshCanary(jnl *journal.Journal, lc *serve.Lifecycle, db *table.DB, o options, out io.Writer) {
	recs, err := jnl.ReadSealed()
	if err != nil || len(recs) == 0 {
		return
	}
	ws := replay.DeriveCanary(recs, o.canaryN, o.seed)
	bound := ws[:0]
	for _, l := range ws {
		if exec.Bind(l.Query, db) == nil {
			bound = append(bound, l)
		}
	}
	if len(bound) == 0 {
		return
	}
	if err := lc.SetCanaryWorkload(context.Background(), bound); err != nil {
		fmt.Fprintf(out, "journal: canary refresh skipped: %v\n", err)
		return
	}
	fmt.Fprintf(out, "journal: canary workload refreshed from traffic (%d queries)\n", len(bound))
}

// coalesced runs fn on a goroutine of its own, at most one at a time: a
// trigger that lands while fn runs marks the run stale, and fn runs once more
// when it returns — so however many triggers land during a run they cost one
// more, and the last run always starts after the last trigger.
type coalesced struct {
	fn func()

	mu      sync.Mutex
	running bool
	stale   bool
	wg      sync.WaitGroup
}

func (c *coalesced) trigger() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		c.stale = true
		return
	}
	c.running = true
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			c.fn()
			c.mu.Lock()
			again := c.stale
			c.stale = false
			c.running = again
			c.mu.Unlock()
			if !again {
				return
			}
		}
	}()
}

// wait returns once no run is in flight.
func (c *coalesced) wait() { c.wg.Wait() }

// feedbackHook is the daemon's serve.Config.Feedback: every served estimate
// feeds the drift monitor and is appended to the feedback journal, whichever
// of the two is armed (nil otherwise). The hook computes no class key: it
// stages the bound query — on a cache hit the entry's shared one, which the
// journal writer only reads — and the writer fingerprints each distinct query
// once per commit. The actuals index learns a record's actual when its batch
// is committed (journal.Options.OnCommit), so an actual whose record was shed
// or lost to a failed flush is not indexed; it used to be, at once.
func feedbackHook(mon *drift.Monitor, jnl *journal.Journal) func(serve.FeedbackEvent) {
	return func(ev serve.FeedbackEvent) {
		if mon != nil {
			mon.ObserveFeedback(ev.Query, ev.Estimate, ev.Actual, ev.HasActual)
		}
		if jnl == nil {
			return
		}
		// Append stages the record and returns: a wedged journal sheds records
		// (counted in journal_shed) and the estimate path never waits.
		jnl.Append(journal.Record{
			SQL:           ev.SQL,
			Query:         ev.Query,
			Model:         ev.Model,
			Generation:    ev.Generation,
			Estimate:      ev.Estimate,
			Actual:        ev.Actual,
			HasActual:     ev.HasActual,
			LatencyMicros: ev.Latency.Microseconds(),
		})
	}
}

// journalCounters flattens the journal's stats into /metrics keys.
func journalCounters(jnl *journal.Journal) map[string]any {
	s := jnl.Stats()
	return map[string]any{
		"journal_appended":     s.Appended,
		"journal_fingerprints": s.Fingerprints,
		"journal_shed":         s.Shed,
		"journal_persisted":    s.Persisted,
		"journal_dropped":      s.Dropped,
		"journal_staged":       s.Staged,
		"journal_flushes":      s.Flushes,
		"journal_flush_micros": s.FlushMicros,
		"journal_flush_errors": s.FlushErrors,
		"journal_rotations":    s.Rotations,
		"journal_gc_removed":   s.GCRemoved,
		"journal_segments":     s.SealedSegments,
		"journal_active_bytes": s.ActiveBytes,
	}
}

// listenAndServe runs the daemon until SIGTERM/SIGINT, then drains.
func listenAndServe(srv *serve.Server, o options, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, srv, o, out)
}

// serveUntil binds -addr, serves until ctx is done, then drains: new requests
// are refused with 503, in-flight requests finish, and the listener closes
// within the drain deadline. The "listening on" line is printed once the
// socket is bound and names the address it is bound to (with -addr :0, the
// port the kernel chose); a bind that fails prints nothing and is the error.
func serveUntil(ctx context.Context, srv *serve.Server, o options, out io.Writer) error {
	// -pprof exposes the profiling handlers on their own listener, never on
	// the serving address, so the fast path can be profiled in production
	// without widening the public API surface. Off by default.
	if o.pprofAddr != "" {
		pp := &http.Server{Addr: o.pprofAddr, Handler: pprofMux()}
		go func() {
			if err := pp.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(out, "pprof listener: %v\n", err)
			}
		}()
		defer pp.Close()
		fmt.Fprintf(out, "pprof listening on %s\n", o.pprofAddr)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "cardestd listening on %s\n", ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "signal received; draining...")
	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), o.drainTO)
	defer cancel()
	err = httpSrv.Shutdown(shutCtx)
	srv.Close()
	if err != nil {
		return fmt.Errorf("drain did not finish within %v: %w", o.drainTO, err)
	}
	fmt.Fprintln(out, "drained cleanly")
	return nil
}

// pprofMux registers the net/http/pprof handlers on a dedicated mux (not
// http.DefaultServeMux), so the profiling surface exists only on the -pprof
// listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// smoke is the self-test behind `make serve-smoke`: serve on a random
// port, exercise the API end to end, verify the metrics reflect the load,
// and shut down cleanly.
func smoke(srv *serve.Server, cacheOn, journalOn bool, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck // shut down below
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "smoke: serving on %s\n", base)

	get := func(path string) (map[string]any, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		var v map[string]any
		return v, json.NewDecoder(resp.Body).Decode(&v)
	}
	post := func(path string, body any) (map[string]any, error) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, b)
		}
		var v map[string]any
		return v, json.NewDecoder(resp.Body).Decode(&v)
	}

	if _, err := get("/healthz"); err != nil {
		return err
	}
	single, err := post("/v1/estimate", map[string]any{
		"sql": "SELECT count(*) FROM forest WHERE A1 >= 3 AND A2 <= 7",
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: single estimate = %v (stage %v)\n", single["estimate"], single["stage"])

	batch := map[string]any{"queries": []map[string]any{
		{"sql": "SELECT count(*) FROM forest WHERE A1 = 5"},
		{"sql": "SELECT count(*) FROM forest WHERE A2 > 2 AND A3 <> 0"},
		{"sql": "SELECT count(*) FROM forest WHERE A4 < 9"},
	}}
	br, err := post("/v1/estimate", batch)
	if err != nil {
		return err
	}
	results, _ := br["results"].([]any)
	if len(results) != 3 {
		return fmt.Errorf("smoke: batched estimate returned %d results, want 3", len(results))
	}
	fmt.Fprintf(out, "smoke: batched estimate returned %d results\n", len(results))

	// The same query again: with the cache on (the default) this second
	// request must be answered from the generation-scoped cache.
	if _, err := post("/v1/estimate", map[string]any{
		"sql": "SELECT count(*) FROM forest WHERE A1 >= 3 AND A2 <= 7",
	}); err != nil {
		return err
	}

	models, err := get("/v1/models")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "smoke: models default=%v\n", models["default"])

	// heap_live_bytes is what the last GC cycle marked: zero until one has
	// finished, and a small boot never reaches the first trigger by itself.
	runtime.GC()
	m, err := get("/metrics")
	if err != nil {
		return err
	}
	reqs, _ := m["requests_total"].(float64)
	qs, _ := m["queries_total"].(float64)
	if reqs < 2 || qs < 4 {
		return fmt.Errorf("smoke: metrics report %v requests / %v queries, want >= 2 / >= 4", reqs, qs)
	}
	fmt.Fprintf(out, "smoke: metrics ok (%v requests, %v queries)\n", reqs, qs)
	if cacheOn {
		hits, _ := m["cache_hits"].(float64)
		if hits < 1 {
			return fmt.Errorf("smoke: repeated estimate produced %v cache hits, want >= 1", hits)
		}
		fmt.Fprintf(out, "smoke: estimate cache ok (%v hits)\n", hits)
	}
	live, _ := m["heap_live_bytes"].(float64)
	goal, _ := m["heap_goal_bytes"].(float64)
	mapped, _ := m["mem_mapped_bytes"].(float64)
	if live <= 0 || goal <= 0 || mapped <= 0 {
		return fmt.Errorf("smoke: metrics report heap_live_bytes %v, heap_goal_bytes %v, mem_mapped_bytes %v, want all three positive", live, goal, mapped)
	}
	fmt.Fprintf(out, "smoke: memory ok (%.1f MiB live heap, %.1f MiB mapped)\n", live/(1<<20), mapped/(1<<20))
	if journalOn {
		// The writer names the records' classes: journal_fingerprints over
		// journal_appended is the share of records that cost one.
		appended, okA := m["journal_appended"].(float64)
		fps, okF := m["journal_fingerprints"].(float64)
		if !okA || !okF || appended < 5 {
			return fmt.Errorf("smoke: metrics report journal_appended %v, journal_fingerprints %v, want both, >= 5 appended", m["journal_appended"], m["journal_fingerprints"])
		}
		fmt.Fprintf(out, "smoke: journal ok (%v appended, %v fingerprints)\n", appended, fps)
	}

	srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	srv.Close()
	fmt.Fprintln(out, "smoke: clean shutdown")
	return nil
}
