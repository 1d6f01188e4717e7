// Package serve is the production front door of the estimation system: a
// long-lived HTTP server that routes estimate requests to a hot-swappable
// registry of models, each served behind its resilience chain, answers every
// query through one path — a single is a batch of one, on its own request
// goroutine, and a client batch fans its misses out over a bounded worker
// pool, both behind a generation-scoped estimate cache — and protects itself
// with admission control, per-request deadlines, and graceful drain.
//
// Endpoints:
//
//	POST /v1/estimate    — estimate one query ({"sql": ...}) or a batch
//	                       ({"queries": [{"sql": ...}, ...]}); optional
//	                       "model", "timeoutMs", and per-query "actual"
//	                       (true cardinality feedback, recorded as q-error);
//	                       the body is that one object and nothing else,
//	                       its keys case-sensitive (the wire codec, codec.go)
//	GET  /v1/models      — list registered models (with store generation and
//	                       canary status) and the default
//	POST /v1/models/load — load a persisted snapshot from disk (confined to
//	                       the configured model root) and publish it through
//	                       the lifecycle's canary gate (409 on rejection)
//	                       without dropping in-flight requests
//	POST /v1/models/rollback — quarantine the live generation and promote
//	                       the previous good one from the crash-safe store
//	                       (501 when the lifecycle has no store, 409 when
//	                       there is nothing to roll back to, 500 when the
//	                       store fails)
//	GET  /v1/journal     — the lifecycle's feedback journal: directory,
//	                       counters, segments (only when it has one)
//	GET  /healthz        — 200 while serving, 503 while draining
//	GET  /metrics        — expvar-style JSON counters and histograms (and the
//	                       lifecycle's journal_* counters)
//
// The server never queues unboundedly: past MaxInFlight concurrent estimate
// requests it sheds with 429 + Retry-After. During drain (SIGTERM) new
// requests get 503 while in-flight ones run to completion.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/metrics"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Config assembles a Server. Registry and DB are required; everything else
// has serviceable defaults.
type Config struct {
	// Registry resolves model names to estimators.
	Registry *Registry
	// DB binds every incoming query (exec.Bind): its names are resolved,
	// its predicates stamped with their columns — which the featurizers
	// read — and its string literals mapped to dictionary codes. For a
	// Config without a Lifecycle it also schema-validates loaded snapshots
	// (a Lifecycle validates against its own).
	DB *table.DB
	// Deprecated: ignored (see BatcherConfig). Kept only so cmd/bench compiles.
	Batcher BatcherConfig
	// MaxInFlight bounds concurrent estimate requests; excess is shed with
	// 429. Default 64.
	MaxInFlight int
	// DefaultTimeout bounds each request's estimation when the request
	// itself asks for nothing tighter. Zero means no implicit deadline.
	DefaultTimeout time.Duration
	// ModelRoot, when set, confines POST /v1/models/load to snapshots under
	// this directory: relative paths resolve against it, and any path that
	// escapes it (via ".." or an absolute path elsewhere) is refused with
	// 400. Empty means unrestricted (embedders doing their own vetting).
	ModelRoot string
	// Lifecycle publishes every POST /v1/models/load through its canary gate
	// (409 on rejection) and, when it has a store, persists admitted models
	// and enables POST /v1/models/rollback; when it has a journal, the server
	// reports it (journal_* in /metrics, GET /v1/journal). It must publish
	// into Registry. Nil means one with no store, no journal and no canary
	// workload: loads are admitted as they are and rollback is 501.
	Lifecycle *Lifecycle
	// Cache enables the generation-scoped, text-keyed estimate cache on the
	// /v1/estimate hot path (see cache.go). The zero value disables it.
	Cache CacheConfig
	// Feedback, when non-nil, observes every answered query, cached and
	// degraded answers included: the chain always answers, so only a text
	// that does not parse or bind goes unseen. The event says explicitly whether the client reported a true
	// cardinality (HasActual) — an actual of zero rows is real feedback,
	// distinct from no feedback at all. Called synchronously on the request
	// path — keep it cheap (the daemon's journal append behind it is a
	// non-blocking enqueue).
	Feedback func(ev FeedbackEvent)
}

// The request limits every server enforces.
const (
	retryAfter           = "1"              // the Retry-After header of a 429, in whole seconds
	maxTimeout           = 30 * time.Second // caps a request's "timeoutMs" and the server default
	maxQueriesPerRequest = 256              // a client batch past it is a 413
	maxBodyBytes         = 1 << 20          // a request body past it is a 413
)

// Server wires the registry, estimate cache, admission control, and metrics
// behind an http.Handler. Create with New, expose via Handler, stop with
// Drain then http.Server.Shutdown. It owns no goroutine.
type Server struct {
	cfg      Config
	reg      *Registry
	limiter  *limiter
	cache    *estCache // nil when Config.Cache left zero
	lc       *Lifecycle
	metrics  *Metrics
	mux      *http.ServeMux
	draining atomic.Bool
}

// New builds a Server from cfg. cfg.Registry must be non-nil, and a
// cfg.Lifecycle must publish into it: a load admitted into another registry
// would answer 200 and never serve.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil || cfg.DB == nil {
		return nil, fmt.Errorf("serve: Config.Registry and Config.DB are required")
	}
	if cfg.Lifecycle != nil && cfg.Lifecycle.reg != cfg.Registry {
		return nil, fmt.Errorf("serve: Config.Lifecycle publishes into a different registry than Config.Registry")
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 64
	}
	lc := lifecycleOf(cfg)
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		limiter: newLimiter(cfg.MaxInFlight),
		lc:      lc,
		metrics: lc.metrics,
	}
	s.cache = newEstCache(cfg.Cache, s.metrics, cfg.Feedback != nil)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/models/load", s.handleLoad)
	s.mux.HandleFunc("/v1/models/rollback", s.handleRollback)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", s.metrics)
	if lc.jnl != nil {
		s.mux.HandleFunc("/v1/journal", s.handleJournal)
	}
	return s, nil
}

// handleJournal reports the lifecycle's feedback journal: its directory,
// counters and segments.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	jnl := s.lc.jnl
	writeJSON(w, http.StatusOK, map[string]any{"dir": jnl.Dir(), "stats": jnl.Stats(), "segments": jnl.Segments()})
}

// Handler returns the server's HTTP handler (status-code accounting wrapped
// around the mux).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		s.mux.ServeHTTP(sw, r)
		s.metrics.observeStatus(sw.status())
	})
}

// Metrics exposes the server's counters (tests and embedding daemons).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Drain puts the server into drain mode: new estimate requests are refused
// with 503 while requests already admitted keep running. Call before
// http.Server.Shutdown so the listener close has nothing left to wait for
// beyond the in-flight tail.
func (s *Server) Drain() { s.draining.Store(true) }

// Close is a no-op: every estimate runs on the goroutine of the request
// that asked for it, so once http.Server.Shutdown returns the server is
// idle. The method stays because embedders (cmd/bench among them) call it.
func (s *Server) Close() {}

// statusWriter captures the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// FeedbackEvent is one served estimate as observed by Config.Feedback: everything the feedback journal needs, with the
// has-actual bit made explicit so a genuine zero-row actual is never mistaken
// for absent feedback.
type FeedbackEvent struct {
	// Query is the parsed, bound query, never nil. On a cache hit it is the
	// one the entry's miss bound, shared with every other hit of that text:
	// read it, never write through it.
	Query *sqlparse.Query
	// SQL is the query text as the client sent it.
	SQL string
	// Model and Generation identify the registry entry that answered.
	Model      string
	Generation uint64
	// Estimate is the cardinality the client received.
	Estimate float64
	// Actual is the client-reported true cardinality; meaningful only when
	// HasActual is set. HasActual with Actual == 0 is a genuine empty
	// result.
	Actual    float64
	HasActual bool
	// Latency is the server-side estimation time (per-query share for
	// client batches).
	Latency time.Duration
}

// ---- request/response shapes ----

type estimateItem struct {
	SQL string `json:"sql"`
	// Actual, when present and >= 0, is the client-reported true
	// cardinality (post-execution feedback); the server records the
	// estimate's q-error and forwards it to Config.Feedback. Absent (null)
	// or negative means no feedback; an explicit 0 is a genuine empty
	// result.
	Actual *float64 `json:"actual,omitempty"`
}

type estimateRequest struct {
	Model     string         `json:"model,omitempty"`
	TimeoutMS int64          `json:"timeoutMs,omitempty"`
	SQL       string         `json:"sql,omitempty"`
	Actual    *float64       `json:"actual,omitempty"`
	Queries   []estimateItem `json:"queries,omitempty"`
}

type estimateResult struct {
	Estimate float64 `json:"estimate,omitempty"`
	Stage    string  `json:"stage,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	Micros   int64   `json:"micros"`
	Error    string  `json:"error,omitempty"`
}

type estimateResponse struct {
	Model string `json:"model"`
	estimateResult
	Results []estimateResult `json:"results,omitempty"`
}

// writeJSON renders v by reflection: the admin, status and health endpoints,
// whose shapes vary and whose rate does not matter. /v1/estimate renders
// through the wire codec (codec.go).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

// writeError answers {"error": ...} on every endpoint.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeWire(w, code, appendErrorResponse(nil, fmt.Sprintf(format, args...)))
}

// ---- handlers ----

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	entry := time.Now() // the request's deadline counts from here
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		s.metrics.drained.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// The body is read before a slot is taken: a client that sends headers
	// and withholds its body waits on its own connection (bounded by the
	// http.Server's ReadTimeout), not in one of the slots every client shares.
	sc := scratchPool.Get().(*reqScratch)
	defer sc.release()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !s.limiter.tryAcquire() {
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, http.StatusTooManyRequests, "at capacity (%d requests in flight); retry later", s.limiter.capacity())
		return
	}
	defer s.limiter.release()
	s.metrics.requests.Add(1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	var req estimateRequest
	if err := sc.dec.decode(sc.body.Bytes(), &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	single := req.SQL != ""
	if single == (len(req.Queries) > 0) {
		writeError(w, http.StatusBadRequest, `provide exactly one of "sql" or "queries"`)
		return
	}
	// Feedback goes with each query (a single's is its one): a batch's
	// top-level "actual" would name no query, and dropping it loses it.
	if !single && req.Actual != nil {
		writeError(w, http.StatusBadRequest, `a batch carries "actual" in each query, not at the top level`)
		return
	}
	if len(req.Queries) > maxQueriesPerRequest {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d queries exceeds the %d-query limit", len(req.Queries), maxQueriesPerRequest)
		return
	}

	est, info, err := s.reg.Resolve(req.Model)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// The deadline is a time the chain compares the clock with; no context
	// or timer is built for it. The request context's own, if earlier, wins.
	ctx := r.Context()
	at := s.deadlineFrom(entry, req.TimeoutMS)
	if d, ok := ctx.Deadline(); ok && (at.IsZero() || d.Before(at)) {
		at = d
	}

	// A single is a batch of one, rendered in the single's top-level shape;
	// what would be a batch item's error is the single's 400.
	items := req.Queries
	if single {
		sc.single[0] = estimateItem{SQL: req.SQL, Actual: req.Actual}
		items = sc.single[:]
	}
	s.estimateBatch(ctx, at, est, info, items, !single, sc)
	resp := estimateResponse{Model: info.Name, Results: sc.results}
	if single {
		resp.estimateResult, resp.Results = sc.results[0], nil
		if resp.Error != "" {
			writeError(w, http.StatusBadRequest, "%s", resp.Error)
			return
		}
	}
	writeEstimate(w, sc, http.StatusOK, &resp)
}

// answer resolves one query text as far as the calling goroutine can without
// estimating: a lookup in the estimate cache under the text's key, then — only
// when that missed — parse and bind. A hit therefore returns before a parse
// or an estimate, with or without a Feedback hook: the hook is owed the
// query, and the entry of a server that has one carries the query its miss
// bound (shared and read-only, see cacheEntry); a hit that carries none is
// parsed for the hook. The error is the client's (unparseable
// or unbindable text, 4xx); such text was never estimated, so it is never a
// hit.
func (s *Server) answer(gen uint64, sql string, sc *reqScratch) (key cacheKey, q *sqlparse.Query, br EstResult, hit bool, err error) {
	if s.cache != nil {
		key = sc.hasher.key(gen, sql)
		br, q, hit = s.cache.lookup(key)
	}
	if !hit || (q == nil && s.cfg.Feedback != nil) {
		q, err = s.parseAndBind(sql, &sc.arena)
	}
	return key, q, br, hit, err
}

// record accounts one answered query — latency and degradation metrics, the
// q-error when the client reported a true cardinality, the Feedback hook —
// and renders its wire result. Feedback (the journal, q-error accounting)
// observes cached and degraded answers too: the client received that
// estimate, so the record of what was served must hold it.
func (s *Server) record(info ModelInfo, q *sqlparse.Query, sql string, br EstResult, reported *float64, latency time.Duration) estimateResult {
	s.metrics.observeQuery(latency, br.Degraded)
	actual, hasActual := actualValue(reported)
	if hasActual && actual > 0 {
		s.metrics.ObserveQError(metrics.QError(actual, br.Estimate))
	}
	if s.cfg.Feedback != nil {
		s.cfg.Feedback(FeedbackEvent{
			Query:      q,
			SQL:        sql,
			Model:      info.Name,
			Generation: info.Generation,
			Estimate:   br.Estimate,
			Actual:     actual,
			HasActual:  hasActual,
			Latency:    latency,
		})
	}
	return estimateResult{Estimate: br.Estimate, Stage: br.Stage, Degraded: br.Degraded, Micros: latency.Microseconds()}
}

// estimateBatch answers items into sc.results, in request order: answer per
// item (errors are per-item), then only the misses estimated (doBatch) and
// put; a batch the cache answers whole parses nothing. A single comes here as
// a batch of one; only a client batch counts in batches_total, by its misses.
// Nothing here queues or waits on a timer or another request (DESIGN §11).
// The latency counts from the first lookup, so a miss's includes its parse.
func (s *Server) estimateBatch(ctx context.Context, at time.Time, est *resilience.Resilient, info ModelInfo, items []estimateItem, client bool, sc *reqScratch) {
	start := time.Now()
	sc.results = zeroed(sc.results, len(items))
	for i := range items {
		if !finiteActual(items[i].Actual) {
			sc.results[i] = estimateResult{Error: `"actual" must be a finite number`}
			s.metrics.estErrors.Add(1)
			continue
		}
		key, q, br, hit, err := s.answer(info.Generation, items[i].SQL, sc)
		if err != nil {
			sc.results[i] = estimateResult{Error: err.Error()}
			s.metrics.estErrors.Add(1)
			continue
		}
		if !hit {
			sc.missQ = append(sc.missQ, q)
			sc.missIdx = append(sc.missIdx, len(sc.idx))
		}
		sc.idx = append(sc.idx, i)
		sc.qs = append(sc.qs, q)
		sc.keys = append(sc.keys, key)
		sc.out = append(sc.out, br)
	}
	if len(sc.missQ) > 0 {
		if client {
			s.metrics.observeBatch(len(sc.missQ))
		}
		sc.missOut = zeroed(sc.missOut, len(sc.missQ))
		s.doBatch(ctx, at, est, sc.missQ, sc.missOut)
		for k, res := range sc.missOut {
			j := sc.missIdx[k]
			sc.out[j] = res
			s.cache.put(sc.keys[j], res, sc.qs[j])
		}
	}
	perQuery := time.Since(start) / time.Duration(max(1, len(sc.idx)))
	for j, i := range sc.idx {
		sc.results[i] = s.record(info, sc.qs[j], items[i].SQL, sc.out[j], items[i].Actual, perQuery)
	}
}

// finiteActual vets a client-reported true cardinality at the ingestion
// edge. Absent (nil) and negative values are fine — they mean "no
// feedback" — but NaN and ±Inf are malformed.
func finiteActual(v *float64) bool {
	return v == nil || (!math.IsNaN(*v) && !math.IsInf(*v, 0))
}

// actualValue resolves a client-reported actual into (value, hasActual).
// nil means the field was absent; negative values are the pre-pointer wire
// convention for "no feedback" and stay that. An explicit zero IS feedback:
// the query truly returned no rows. This is the single point that decides
// the has-actual bit — everything downstream (q-error histograms, the
// journal) trusts it rather than re-interpreting zero.
func actualValue(v *float64) (float64, bool) {
	if v == nil || *v < 0 {
		return 0, false
	}
	return *v, true
}

// deadlineFrom places the estimation deadline: the client's timeoutMs or the
// server default, capped at maxTimeout, counted from the handler's entry —
// the time a request spent before its miss is part of its budget. timeoutMs
// is capped before it becomes a Duration: past ~2^63 ns the product wraps
// around. The zero time means no deadline.
func (s *Server) deadlineFrom(entry time.Time, timeoutMS int64) time.Time {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(min(timeoutMS, maxTimeout.Milliseconds())) * time.Millisecond
	}
	d = min(d, maxTimeout)
	if d <= 0 {
		return time.Time{}
	}
	return entry.Add(d)
}

// parseAndBind turns SQL text into a bound query. All failures here are the
// client's (4xx): syntax errors, unknown tables/columns, type mismatches, and
// a GROUP BY, which parses but asks for a group count no served model has.
//
// The query is parsed into arena, the request's, which its scratch resets
// when the request ends — unless the server has a Feedback hook: the hook's
// consumer (the journal queue) and the cache entries that hand their query to
// the hook on a hit keep it past the request, so theirs is Parse's
// garbage-collected memory (DESIGN §11).
func (s *Server) parseAndBind(sql string, arena *sqlparse.Arena) (*sqlparse.Query, error) {
	parse := arena.Parse
	if s.cfg.Feedback != nil {
		parse = sqlparse.Parse
	}
	q, err := parse(sql)
	if err != nil {
		return nil, err
	}
	if err := estimator.RefuseGroupBy(q); err != nil {
		return nil, err
	}
	if err := exec.Bind(q, s.cfg.DB); err != nil {
		return nil, err
	}
	return q, nil
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	models, def := s.reg.List()
	writeJSON(w, http.StatusOK, map[string]any{"default": def, "models": models})
}

type loadRequest struct {
	Name    string `json:"name"`
	Path    string `json:"path"`
	Default bool   `json:"default,omitempty"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req loadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, `"name" and "path" are required`)
		return
	}
	path, err := s.resolveModelPath(req.Path)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The handler only reads the bytes. The lifecycle decodes them (400 when
	// they are no model of this schema), judges the model (409) and — only on
	// admission — persists a default (500 when it cannot) and publishes it.
	snap, err := os.ReadFile(path)
	if err != nil {
		writeError(w, http.StatusBadRequest, "load %q from %s: %v", req.Name, req.Path, err)
		return
	}
	pub, err := s.lc.Publish(r.Context(), PublishSpec{Name: req.Name, Source: path, Snapshot: snap, MakeDefault: req.Default})
	switch {
	case errors.Is(err, ErrBadSnapshot):
		writeError(w, http.StatusBadRequest, "load %q from %s: %v", req.Name, req.Path, err)
	case errors.Is(err, ErrCanaryRejected):
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "canary": pub.Canary})
	case err != nil:
		writeError(w, http.StatusInternalServerError, "publish %q: %v", req.Name, err)
	default:
		s.metrics.swaps.Add(1)
		writeJSON(w, http.StatusOK, pub)
	}
}

// resolveModelPath confines a client-supplied snapshot path to the
// configured model root. Relative paths resolve against the root; the
// cleaned result must stay inside it both lexically and after resolving
// symlinks, so a link planted inside the root cannot point a load outside
// it.
func (s *Server) resolveModelPath(p string) (string, error) {
	if s.cfg.ModelRoot == "" {
		return p, nil
	}
	rootAbs, err := filepath.Abs(s.cfg.ModelRoot)
	if err != nil {
		return "", fmt.Errorf("model root %q: %v", s.cfg.ModelRoot, err)
	}
	// The root itself may sit behind symlinks (e.g. /tmp on some systems);
	// resolve it so the post-EvalSymlinks containment check compares like
	// with like. A root that does not exist yet keeps its lexical form.
	rootRes := rootAbs
	if r, err := filepath.EvalSymlinks(rootAbs); err == nil {
		rootRes = r
	}
	within := func(root, path string) bool {
		rel, err := filepath.Rel(root, path)
		return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
	}
	escape := func() (string, error) {
		return "", fmt.Errorf("path %q escapes the model root (models may only be loaded from %s)", p, s.cfg.ModelRoot)
	}
	full := p
	if !filepath.IsAbs(full) {
		full = filepath.Join(rootAbs, full)
	}
	full = filepath.Clean(full)
	// Lexical check first: ".." and foreign absolute paths are refused
	// before any filesystem access.
	if !within(rootAbs, full) && !within(rootRes, full) {
		return escape()
	}
	// Then re-check with symlinks resolved. A path that does not exist
	// cannot leak anything — the read that follows fails — so it keeps the
	// lexically-vetted form.
	resolved, err := filepath.EvalSymlinks(full)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return full, nil
		}
		return "", fmt.Errorf("path %q: %v", p, err)
	}
	if !within(rootRes, resolved) {
		return escape()
	}
	return resolved, nil
}

type rollbackRequest struct {
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.lc.Store() == nil {
		writeError(w, http.StatusNotImplemented, "no snapshot store to roll back from")
		return
	}
	var req rollbackRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
	}
	reason := req.Reason
	if reason == "" {
		reason = "manual"
	}
	pub, err := s.lc.Rollback(r.Context(), reason)
	if err != nil {
		// Only a missing target is the request's conflict with the store's
		// state; a store that cannot quarantine or read is the server's fault.
		code := http.StatusInternalServerError
		if errors.Is(err, ErrNoRollbackTarget) {
			code = http.StatusConflict
		}
		writeError(w, code, "rollback: %v", err)
		return
	}
	s.metrics.swaps.Add(1)
	writeJSON(w, http.StatusOK, pub)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	models, _ := s.reg.List()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": len(models)})
}
