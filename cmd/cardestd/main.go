// Command cardestd is the long-lived estimation daemon: it serves the
// trained (QFT × model) estimators of this reproduction over an HTTP JSON
// API, with a hot-swappable model registry, an estimate cache keyed on the
// query text, admission control, and graceful drain (see internal/serve). A
// single query is estimated on its own request goroutine; a client batch fans
// out over the Ps serving it.
//
// Usage:
//
//	cardestd [-addr :8482] [-load name=path[,name=path...]] [-default name]
//	         [-qft complex] [-model GB] [-train 2000] [-rows 20000]
//	         [-entries 32] [-seed 1] [-workers 0] [-save file]
//	         [-timeout 100ms] [-max-inflight 64]
//	         [-drain-timeout 10s] [-smoke] [-pprof addr]
//	         [-cache-entries 4096]
//	         [-store dir] [-canary 200] [-canary-median 10] [-canary-p95 100]
//	         [-model-root dir]
//	         [-journal dir] [-journal-segment-size 4194304]
//	         [-journal-retention 8]
//
// Without -load, the daemon builds the synthetic forest database and trains
// a model at boot (same flags as cardest), published as "boot" in the bytes
// -save writes. With -load, each name=path pair is read and published as it
// is (local snapshots, the one kind any binary writes); the database is still
// built so string literals bind and snapshots schema-validate, and the first,
// or -default, is made the default. Further models can be loaded at runtime
// via POST /v1/models/load without dropping in-flight requests. Every model,
// whichever way it comes, reaches the registry as snapshot bytes through the
// one lifecycle (internal/serve), which decodes each one itself: what the
// daemon serves is what -save wrote and what a restart recovers.
//
// -store gives that lifecycle a crash-safe store (see internal/store and
// internal/serve) and a canary workload of -canary held-out labeled queries:
// every publish — boot, recovery, a -load pair or POST /v1/models/load — must
// clear the canary gate (median/p95 q-error ceilings -canary-median and
// -canary-p95; rejected loads get 409), and each admitted default is persisted
// as a checksummed, fsync'd generation under the directory. A model published
// beside the default (a -load pair that is not the default, a load without
// "default") is judged and served but not persisted, so the store holds only
// defaults and a rollback or restart returns to one. At boot the newest valid
// generation is recovered instead of retraining (torn or corrupt generations
// are quarantined and skipped). A model is judged once, at that gate: nothing
// alters it after it is published, so there is nothing to re-probe.
// POST /v1/models/rollback quarantines the live generation and rolls the
// registry back to the previous good one. Without -store there is no canary
// workload (-canary and its ceilings do nothing; every model is admitted) and
// rollback answers 501.
//
// POST /v1/models/load is confined to -model-root (default: the -store
// directory, else the working directory): paths that escape it via ".." or
// an absolute prefix elsewhere are refused with 400.
//
// Retraining is an operator action through that one door: train a snapshot
// offline (cardest -save) and publish it with POST /v1/models/load, where it
// meets the canary like any other model; POST /v1/models/rollback undoes it.
// The daemon retrains nothing itself: benchrunner's ext10 measured that no
// retrain on served feedback heals the paper's query drift by the margin set
// for it (EXPERIMENTS.md).
//
// The daemon memoizes estimates in a generation-scoped cache
// (-cache-entries, default 4096; 0 disables): requests are keyed on the live
// model's registry generation plus the SHA-256 of the query text as sent, so
// a repeated text is answered before it is parsed, a miss is computed on the
// request goroutine that missed, and every publish or rollback invalidates
// the cache implicitly by changing the generation. A different spelling of a
// cached query (reordered conjuncts, "a > 5" for "a >= 6") is a different
// key: it recomputes, a few microseconds, and gets the same estimate.
// /metrics reports cache_hits, cache_misses and cache_evictions. The key of
// the featurization class, core.Fingerprint, is computed only where it is
// read, from a record's SQL: cmd/replay counts how many of a journal's
// records a class key would have served that a text key does not (its
// "traffic:" line), and the traffic canary deduplicates by it.
//
// -journal arms the durable query-feedback journal (see internal/journal):
// every served estimate — SQL, estimate, client-reported actual (with an
// explicit has-actual bit), latency, model generation, timestamp — is
// appended to a segmented, CRC-framed, crash-recoverable
// log under the directory. The append path never blocks serving: a slow or
// wedged journal sheds records (journal_shed in /metrics) instead of
// stalling /v1/estimate. Segments rotate at -journal-segment-size bytes and
// the newest -journal-retention sealed segments survive GC. Under -store the
// lifecycle judges each model a load or a rollback brings on what production
// asks: a deterministic reservoir sample of the sealed segments' labeled
// traffic (up to -canary queries that bind against the table), taken at that
// door and used when the live model passes it, else the held-out set. Nothing
// reads the journal between those doors; a restarted daemon's first load is
// judged on the traffic its journal recovered.
// GET /v1/journal reports stats and segments; /metrics grows journal_*
// counters; the cmd/replay CLI replays segments offline against saved models.
//
// Every registered model serves inside cli.Chain, as in cardest: learned →
// independence → row-count heuristic, every stage asked on every request, so
// the daemon always answers; a query the model does not encode (an OR across
// attributes) passes on to the next stage and says nothing about the query
// after it. -timeout is a request's estimation
// deadline (0 = none), counted from the handler's entry; the chain alone
// reads it, before each stage, so a request whose deadline is spent is
// answered by the row-count heuristic and a late one is never held against
// the model. SIGTERM/SIGINT drain gracefully: in-flight requests finish, new ones
// get 503, and the listener closes within -drain-timeout.
//
// Boot, labeling and training run on every P (-workers bounds training's
// goroutines). Serving runs on as few as its load needs: a governor starts
// at the Ps the process has, reads its CPU time and the time its goroutines
// waited for a P every 100 ms, goes back to every P at once when the Ps
// serving are short (busy, or work waits for them), drops one when one fewer
// would do, and logs each step with the load of the window that made it. A
// sequential client then costs no wake-up of an idle P per request (DESIGN
// §6); the drain runs on every P again.
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
	"syscall"
	"time"

	"qfe/internal/cli"
	"qfe/internal/journal"
	"qfe/internal/serve"
	"qfe/internal/store"
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
	modelRoot    string

	journalDir    string
	journalSegSz  int64
	journalRetain int
	journalFS     store.FS // no flag: nil is the real filesystem; tests count its reads
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
// notably the retired -max-batch, -batch-delay, -fallback, -retrain,
// -retrain-cooldown, -drift-* and -probe-interval, so a deployment script that
// still sets them fails loudly instead of keeping a knob that does nothing.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("cardestd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8482", "listen address")
	fs.StringVar(&o.load, "load", "", "comma-separated name=path model snapshots to serve (default: train one at boot)")
	fs.StringVar(&o.defName, "default", "", "name of the default model (default: first registered)")
	fs.StringVar(&o.qft, "qft", "complex", "featurization for the boot-trained model: complex (Limited Disjunction Encoding, which also encodes OR), the one served; any other name is refused before the table is built")
	fs.StringVar(&o.model, "model", "GB", "regressor for the boot-trained model: GB, the one served; any other name is refused before the table is built")
	fs.IntVar(&o.trainN, "train", 2_000, "training queries for the boot-trained model")
	fs.IntVar(&o.rows, "rows", 20_000, "forest table rows")
	fs.IntVar(&o.entries, "entries", 32, "per-attribute feature entries (n)")
	fs.Int64Var(&o.seed, "seed", 1, "generation seed")
	fs.IntVar(&o.workers, "workers", 0, "goroutines for training (0 = one per logical CPU)")
	fs.StringVar(&o.save, "save", "", "write the boot-trained model snapshot to this file")
	fs.DurationVar(&o.timeout, "timeout", 100*time.Millisecond, "default per-request estimation deadline, counted from the request's arrival (0 = none); past it the row-count heuristic answers, and when the learned model fails or refuses a query, independence and then the row-count heuristic do")
	fs.IntVar(&o.maxInFly, "max-inflight", 64, "concurrent estimate requests admitted before shedding with 429")
	fs.DurationVar(&o.drainTO, "drain-timeout", 10*time.Second, "graceful-drain deadline on SIGTERM")
	fs.BoolVar(&o.smoke, "smoke", false, "run the self-test (random port, batched estimate, metrics scrape) and exit")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; empty disables)")
	fs.IntVar(&o.cacheEntries, "cache-entries", 4096, "estimate cache capacity, keyed on (generation, query text): a repeated text is answered before the parse; 0 disables the cache, so every request pays parse+featurize+inference; under -journal an entry also retains the bound AST of its miss (~2.4 KB, ~9 MB for a full 4096-entry cache)")
	fs.StringVar(&o.storeDir, "store", "", "crash-safe model store directory (enables canary-gated publishes, recovery, and rollback)")
	fs.IntVar(&o.canaryN, "canary", 200, "held-out labeled queries for the canary gate under -store (0 disables the gate; without -store there is none)")
	fs.Float64Var(&o.canaryMedian, "canary-median", 10, "canary ceiling on median q-error")
	fs.Float64Var(&o.canaryP95, "canary-p95", 100, "canary ceiling on p95 q-error")
	fs.StringVar(&o.modelRoot, "model-root", "", "directory POST /v1/models/load may read snapshots from (default: -store dir, else the working directory)")
	fs.StringVar(&o.journalDir, "journal", "", "feedback journal directory (enables durable traffic capture, GET /v1/journal, and traffic-derived canaries)")
	fs.Int64Var(&o.journalSegSz, "journal-segment-size", 4<<20, "journal segment rotation threshold in bytes")
	fs.IntVar(&o.journalRetain, "journal-retention", 8, "sealed journal segments kept before GC (negative keeps all)")
	return o, fs.Parse(args)
}

func run(o options, out io.Writer) error {
	if err := cli.ValidateWorkers(o.workers); err != nil {
		return err
	}
	// Neither is left to a silent default: a negative -timeout would mean no
	// deadline at all, and -max-inflight below 1 the server's 64.
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (0 means no deadline), got %v", o.timeout)
	}
	if o.maxInFly < 1 {
		return fmt.Errorf("-max-inflight must be >= 1, got %d", o.maxInFly)
	}
	if err := cli.ValidateModel(o.model); err != nil {
		return err
	}
	if err := cli.ValidateQFT(o.qft); err != nil {
		return err
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

// daemon is the serving phase: the server and the journal writer feeding it,
// the daemon's one background goroutine. Nothing in it reaches back into the
// boot (boot.go): its closures name the table, the registry, the lifecycle
// and the journal, never the environment they were built from.
type daemon struct {
	srv *serve.Server
	jnl *journal.Journal // -journal
}

// close stops the journal writer, flushing what it holds.
func (d *daemon) close() {
	if d.jnl != nil {
		d.jnl.Close()
	}
}

// arm builds the serving phase over a finished boot and takes over the
// journal boot opened. On an error it closes the journal again.
func arm(b *booted, o options, out io.Writer) (*daemon, error) {
	db, reg, lc, jnl := b.db, b.reg, b.lc, b.jnl

	modelRoot := o.modelRoot
	if modelRoot == "" {
		modelRoot = o.storeDir
	}
	if modelRoot == "" {
		modelRoot = "."
	}

	if o.cacheEntries > 0 {
		fmt.Fprintf(out, "estimate cache: %d entries, keyed on (generation, query text)\n", o.cacheEntries)
	} else {
		fmt.Fprintln(out, "estimate cache: off")
	}

	cfg := serve.Config{
		Registry:       reg,
		DB:             db,
		MaxInFlight:    o.maxInFly,
		DefaultTimeout: o.timeout,
		ModelRoot:      modelRoot,
		Lifecycle:      lc,
		Cache:          serve.CacheConfig{Entries: o.cacheEntries},
	}
	// Every served estimate is appended (shed-not-block) to the journal; the
	// server reports the journal through the lifecycle, which holds it too.
	if jnl != nil {
		cfg.Feedback = feedbackHook(jnl)
	}
	d := &daemon{jnl: jnl}
	srv, err := serve.New(cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv = srv
	return d, nil
}

// feedbackHook is the daemon's serve.Config.Feedback under -journal: every
// served estimate is appended to the feedback journal, as served. The record
// carries no class key: package replay computes it from the SQL where it is
// read.
func feedbackHook(jnl *journal.Journal) func(serve.FeedbackEvent) {
	return func(ev serve.FeedbackEvent) {
		// Append stages the record and returns: a wedged journal sheds records
		// (counted in journal_shed) and the estimate path never waits.
		jnl.Append(journal.Record{
			SQL:           ev.SQL,
			Model:         ev.Model,
			Generation:    ev.Generation,
			Estimate:      ev.Estimate,
			Actual:        ev.Actual,
			HasActual:     ev.HasActual,
			LatencyMicros: ev.Latency.Microseconds(),
		})
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
		pp := httpServer(o.pprofAddr, pprofMux(), profileReadTimeout)
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
	httpSrv := httpServer("", srv.Handler(), readTimeout)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "cardestd listening on %s\n", ln.Addr())
	// The governor serves on as few Ps as the load needs (governor.go); it
	// is joined, and every P given back, before the daemon drains.
	stopGovernor := govern(ctx, out)

	select {
	case err := <-errCh:
		stopGovernor()
		return err
	case <-ctx.Done():
	}
	stopGovernor()
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

// The daemon's read timeouts. A client has readHeaderTimeout to send its
// request line and headers and readTimeout to send the whole request, body
// included; a keep-alive connection waits at most idleTimeout for its next
// request. The estimate handler reads its body before it takes an admission
// slot, so a client that stalls holds a goroutine and a descriptor for at
// most readTimeout, and a slot never. net/http also cancels a request's
// context when its read deadline passes, so the -pprof listener allows
// profileReadTimeout: /debug/pprof/profile and /trace sample for 30 s by
// default and stop early when their context ends. No write timeout, for the
// same reason.
const (
	readHeaderTimeout  = 2 * time.Second
	readTimeout        = 10 * time.Second
	profileReadTimeout = 2 * time.Minute
	idleTimeout        = 60 * time.Second
)

// httpServer is the http.Server each of the daemon's listeners runs; read
// is how long it gives a request to arrive.
func httpServer(addr string, h http.Handler, read time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       read,
		IdleTimeout:       idleTimeout,
	}
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
	if procs, _ := m["gomaxprocs"].(float64); procs < 1 {
		return fmt.Errorf("smoke: metrics report gomaxprocs %v, want >= 1", m["gomaxprocs"])
	}
	if journalOn {
		appended, _ := m["journal_appended"].(float64)
		if appended < 5 {
			return fmt.Errorf("smoke: metrics report journal_appended %v, want >= 5", m["journal_appended"])
		}
		fmt.Fprintf(out, "smoke: journal ok (%v appended)\n", appended)
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
