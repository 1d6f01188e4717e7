package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"qfe/internal/cli"
	"qfe/internal/core"
	"qfe/internal/estimator"
	qexec "qfe/internal/exec"
	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/resilience"
	"qfe/internal/serve"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

const (
	// replayRequests is how many of the workload's requests the traced
	// replay walks (a batch workload's cycle is shorter and is walked once).
	replayRequests = 2048
	// handlerRequests bounds the serve.handler pass: an uncached single waits
	// out the batcher's 2 ms timer in-process too, so the pass is shorter.
	handlerRequests = 512
	// overheadChunk is how many requests run traced, then untraced, in turn;
	// alternating in small chunks cancels drift between the two totals.
	overheadChunk = 128
	allocRuns     = 32
)

// daemon defaults mirrored by the in-process stack (cmd/cardestd flags).
const (
	daemonTimeout    = 100 * time.Millisecond
	daemonBatchDelay = 2 * time.Millisecond
	daemonMaxBatch   = 16
	daemonMaxInFly   = 64
	daemonCache      = 4096
	daemonEntries    = 32
)

// daemonChain wraps est in the degradation chain cardestd's -timeout 100ms
// -fallback defaults arm around every registered model (its resilienceWrap).
func daemonChain(db *table.DB) func(estimator.Estimator) estimator.Estimator {
	return func(est estimator.Estimator) estimator.Estimator {
		return resilience.NewResilient(resilience.Config{
			Timeout:    daemonTimeout,
			LastResort: resilience.RowCount{DB: db},
		},
			resilience.Stage{Name: "learned", Est: est},
			resilience.Stage{Name: "sampling", Est: estimator.NewSampling(db, 0.001, daemonSeed)},
			resilience.Stage{Name: "independence", Est: &estimator.Independence{DB: db}},
		)
	}
}

// stack is the daemon's request path rebuilt in-process from the layers'
// public functions, around the very model the daemon served (its -save
// snapshot), so each layer can be timed from outside.
type stack struct {
	in      *inputs
	model   estimator.Estimator // the learned model, bare
	chain   *resilience.Resilient
	feat    core.Featurizer
	featBuf []float64
	srv     *serve.Server
	handler http.Handler
	jnl     *journal.Journal // feedback workloads only
	jnlDir  string

	loadTime time.Duration
}

// loadModel restores the daemon's snapshot.
func loadModel(snapshot []byte, db *table.DB) (estimator.Estimator, time.Duration, error) {
	start := time.Now()
	est, _, err := estimator.LoadEstimator(bytes.NewReader(snapshot), db)
	if err != nil {
		return nil, 0, fmt.Errorf("load the daemon's snapshot: %w", err)
	}
	return est, time.Since(start), nil
}

func newStack(in *inputs, snapshot []byte, w workload, outDir string) (*stack, error) {
	model, loadTime, err := loadModel(snapshot, in.db)
	if err != nil {
		return nil, err
	}
	s := &stack{in: in, model: model, loadTime: loadTime}
	s.chain = daemonChain(in.db)(model).(*resilience.Resilient)

	opts := core.Options{MaxEntriesPerAttr: daemonEntries, AttrSel: true}
	s.feat, err = core.New("complex", core.NewTableMeta(in.forest, daemonEntries), opts)
	if err != nil {
		return nil, err
	}
	s.featBuf = make([]float64, s.feat.Dim())

	reg := serve.NewRegistry()
	reg.Wrap = daemonChain(in.db)
	if _, err := reg.Register("boot", model, serve.ModelInfo{Kind: estimator.KindLocal, Source: "boot"}); err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Registry:       reg,
		DB:             in.db,
		Batcher:        serve.BatcherConfig{MaxBatch: daemonMaxBatch, MaxDelay: daemonBatchDelay},
		MaxInFlight:    daemonMaxInFly,
		DefaultTimeout: daemonTimeout,
		ModelRoot:      ".",
		Cache:          serve.CacheConfig{Entries: daemonCache},
	}
	if w.Feedback {
		s.jnlDir, err = os.MkdirTemp(outDir, "journal-replay-")
		if err != nil {
			return nil, err
		}
		s.jnl, err = journal.Open(s.jnlDir, journal.Options{})
		if err != nil {
			os.RemoveAll(s.jnlDir)
			return nil, err
		}
		actuals := replay.NewActualIndex(0)
		// cardestd's Feedback hook with -journal and no drift monitor.
		cfg.Feedback = func(ev serve.FeedbackEvent) {
			fp := core.Fingerprint(ev.Query)
			s.jnl.Append(s.record(ev.SQL, fp, ev.Estimate, ev.Actual, ev.HasActual, ev.Latency))
			if ev.HasActual {
				actuals.Put(fp, ev.Actual)
			}
		}
	}
	s.srv, err = serve.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.handler = s.srv.Handler()
	return s, nil
}

func (s *stack) record(sql, fp string, est, actual float64, hasActual bool, lat time.Duration) journal.Record {
	return journal.Record{
		SQL: sql, Fingerprint: fp, Model: "boot", Generation: 1,
		Estimate: est, Actual: actual, HasActual: hasActual, LatencyMicros: lat.Microseconds(),
	}
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.jnl != nil {
		s.jnl.Close() //nolint:errcheck // a scratch journal, removed next
		os.RemoveAll(s.jnlDir)
	}
}

// replayRequest walks one request through the layers on the miss path, a
// span around each public call. The learned model and the featurizer are
// re-timed on the same query under the resilience span (replayed), because
// from outside they cannot be wrapped where they run.
func (s *stack) replayRequest(t *tracer, r request, w workload) error {
	ctx := context.Background()
	root := t.begin("request", 0, false)
	for i := r.first; i < r.first+r.n; i++ {
		sp := t.begin("sqlparse.parse", root, false)
		q, err := sqlparse.Parse(s.in.sql[i])
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.begin("exec.bind", root, false)
		err = qexec.Bind(q, s.in.db)
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.begin("core.fingerprint", root, false)
		fp := core.Fingerprint(q)
		t.end(sp)

		rs := t.begin("resilience.estimate", root, false)
		res := s.chain.EstimateDetailed(ctx, q)
		t.end(rs)
		es := t.begin("estimator.estimate", rs, true)
		_, err = s.model.Estimate(q)
		t.end(es)
		if err != nil {
			return err
		}
		fs := t.begin("core.featurize", es, true)
		err = s.feat.FeaturizeInto(s.featBuf, q.Where)
		t.end(fs)
		if err != nil {
			return err
		}
		if w.Feedback {
			// The Feedback hook fingerprints the query a second time.
			sp = t.begin("core.fingerprint", root, false)
			fp = core.Fingerprint(q)
			t.end(sp)
			rec := s.record(s.in.sql[i], fp, res.Estimate, s.in.card[i], true, 0)
			sp = t.begin("journal.append", root, false)
			s.jnl.Append(rec)
			t.end(sp)
		}
	}
	t.end(root)
	return nil
}

// serveOnce pushes one request body through Server.Handler().
func (s *stack) serveOnce(body []byte) error {
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process handler: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// layerMetrics runs the traced replay for w and returns every per-layer
// metric the replay yields, writing the spans to outDir/trace-<name>.json.
func layerMetrics(in *inputs, snapshot []byte, w workload, reqs []request, outDir string, quick bool) (map[string]float64, error) {
	s, err := newStack(in, snapshot, w, outDir)
	if err != nil {
		return nil, err
	}
	defer s.close()

	n := replayRequests
	if w.Batch > 1 {
		n = len(reqs)
	}
	if quick {
		n /= 8
	}
	at := func(i int) request { return reqs[i%len(reqs)] }

	// Warm the pools, the chain's breakers and the code itself.
	for i := 0; i < min(n, overheadChunk); i++ {
		if err := s.replayRequest(nil, at(i), w); err != nil {
			return nil, err
		}
	}

	// Traced and untraced replays of the same requests, in alternating
	// chunks. What tracing costs is the median over chunks of traced over
	// untraced time: one preempted chunk must not decide it.
	tr := newTracer(n * (2 + 8*w.Batch))
	chunk := max(1, min(overheadChunk, n/8))
	var overhead []float64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		pass := func(t *tracer) (time.Duration, error) {
			start := time.Now()
			for i := lo; i < hi; i++ {
				if t != nil {
					t.request = i + 1
				}
				if err := s.replayRequest(t, at(i), w); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		}
		var traced, untraced time.Duration
		tracedFirst := (lo/chunk)%2 == 0
		for _, withTrace := range []bool{tracedFirst, !tracedFirst} {
			if withTrace {
				traced, err = pass(tr)
			} else {
				untraced, err = pass(nil)
			}
			if err != nil {
				return nil, err
			}
		}
		overhead = append(overhead, float64(traced)/float64(untraced)-1)
	}

	// The serve.handler pass: the same requests through Server.Handler(), in
	// cycle order from the start, so the in-process cache sees what the
	// daemon's saw.
	hn := min(n, handlerRequests)
	if w.Keys == hotKeys {
		for i := 0; i < len(reqs); i++ { // the daemon was warm too
			if err := s.serveOnce(at(i).body); err != nil {
				return nil, err
			}
		}
	}
	before := s.srv.Metrics().Snapshot()
	for i := 0; i < hn; i++ {
		tr.request = i + 1
		sp := tr.begin("serve.handler", 0, false)
		err := s.serveOnce(at(i).body)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	after := s.srv.Metrics().Snapshot()

	if err := tr.write(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}

	totals := totalsByName(tr.spans)
	queries := float64(hn * w.Batch)
	m := map[string]float64{
		"sqlparse.parse_us":      totals["sqlparse.parse"].meanUS(),
		"exec.bind_us":           totals["exec.bind"].meanUS(),
		"core.fingerprint_us":    totals["core.fingerprint"].meanUS(),
		"core.featurize_us":      totals["core.featurize"].meanUS(),
		"estimator.estimate_us":  totals["estimator.estimate"].meanUS(),
		"gb.predict_us":          totals["estimator.estimate"].selfUS(),
		"resilience.estimate_us": totals["resilience.estimate"].meanUS(),
		"resilience.self_us":     totals["resilience.estimate"].selfUS(),
		"journal.append_us":      totals["journal.append"].meanUS(),
		"serve.handler_us":       float64(totals["serve.handler"].total) / float64(time.Microsecond) / queries,
		"trace.overhead_ratio":   median(overhead),
		"estimator.load_ms":      float64(s.loadTime) / float64(time.Millisecond),
	}

	// serve.self_us: what the handler spends outside the layers it calls.
	// The children it actually ran are parse, bind and fingerprint on every
	// query, the chain on cache misses only (spread over the flush's workers
	// on a client batch), and on feedback workloads the hook's fingerprint
	// and append; the rest of the estimate latency the in-process server
	// reports is batcher queue wait.
	snap := func(s map[string]any, key string) float64 { v, _ := s[key].(int64); return float64(v) }
	chain := m["resilience.estimate_us"] * (snap(after, "cache_misses") - snap(before, "cache_misses")) / queries
	children := m["sqlparse.parse_us"] + m["exec.bind_us"] + m["core.fingerprint_us"]
	if w.Feedback {
		children += m["core.fingerprint_us"] + m["journal.append_us"]
	}
	if w.Batch > 1 {
		children += chain / float64(min(runtime.GOMAXPROCS(0), w.Batch))
	} else {
		children += max(chain, histMean(before, after)-m["core.fingerprint_us"]) // the chain and the queue wait before it
	}
	m["serve.self_us"] = m["serve.handler_us"] - children

	// The queries of the replayed requests, parsed once, for the two
	// measurements below.
	qs := make([]*sqlparse.Query, 0, min(n, len(reqs))*w.Batch)
	for i := 0; i < min(n, len(reqs)); i++ {
		for j := reqs[i].first; j < reqs[i].first+reqs[i].n; j++ {
			q, err := in.parse(j)
			if err != nil {
				return nil, err
			}
			qs = append(qs, q)
		}
	}

	// estimator.batch_us_per_query: EstimateBatch, 64 queries at a time. The
	// daemon never reaches it behind the resilience wrap; the number is here
	// so that keeping or deleting the path can be decided on one.
	m["estimator.batch_us_per_query"] = 0
	if be, ok := s.model.(estimator.BatchEstimator); ok {
		start := time.Now()
		for lo := 0; lo < len(qs); lo += batchSize {
			_, errs := be.EstimateBatch(context.Background(), qs[lo:min(lo+batchSize, len(qs))])
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
		}
		m["estimator.batch_us_per_query"] = float64(time.Since(start)) / float64(time.Microsecond) / float64(len(qs))
	}

	// Allocation counts repeat exactly, so a change in one is a change in
	// the code. Each run takes the next query (or request) of the cycle.
	allocs := func(f func(k int)) float64 {
		k := 0
		return testing.AllocsPerRun(allocRuns, func() { f(k); k++ })
	}
	query := func(k int) *sqlparse.Query { return qs[k%len(qs)] }
	m["sqlparse.parse_allocs"] = allocs(func(k int) {
		sqlparse.Parse(in.sql[k%w.Keys]) //nolint:errcheck // parsed above
	})
	m["core.fingerprint_allocs"] = allocs(func(k int) { core.Fingerprint(query(k)) })
	m["core.featurize_allocs"] = allocs(func(k int) {
		s.feat.FeaturizeInto(s.featBuf, query(k).Where) //nolint:errcheck // featurized above
	})
	m["estimator.estimate_allocs"] = allocs(func(k int) {
		s.model.Estimate(query(k)) //nolint:errcheck // estimated above
	})
	var handlerErr error
	m["serve.handler_allocs"] = allocs(func(k int) {
		// The cycle carries on where the handler pass stopped, so a cold
		// workload's requests are still misses.
		if err := s.serveOnce(at(hn + k).body); err != nil {
			handlerErr = err
		}
	}) / float64(w.Batch)
	return m, handlerErr
}

// histMean is the mean of the in-process server's latency_micros histogram
// between two snapshots.
func histMean(before, after map[string]any) float64 {
	get := func(s map[string]any) (count, sum float64) {
		h, _ := s["latency_micros"].(map[string]any)
		c, _ := h["count"].(int64)
		sum, _ = h["sum"].(float64)
		return float64(c), sum
	}
	c0, s0 := get(before)
	c1, s1 := get(after)
	if c1 == c0 {
		return 0
	}
	return (s1 - s0) / (c1 - c0)
}

// offlineMetrics times the path a model takes before it serves — build the
// table, label a workload, train, save — once, in-process, with the daemon's
// own sizing. These are the layers setup_s is made of.
func offlineMetrics(in *inputs, cfg daemonConfig) (map[string]float64, error) {
	qs := make([]*sqlparse.Query, replayRequests) // a quarter of the traffic is enough for a rate
	for i := range qs {
		q, err := in.parse(i)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	start := time.Now()
	if _, err := qexec.CountManyCtx(context.Background(), in.db, qs); err != nil {
		return nil, err
	}
	labelTime := time.Since(start)

	env, err := cli.BuildForestEnv(cli.ForestSpec{Rows: cfg.Rows, TrainN: cfg.Train, Seed: daemonSeed, QFT: "complex"})
	if err != nil {
		return nil, err
	}
	loc, err := cli.NewLocalEstimator(env.DB, cli.TrainSpec{QFT: "complex", Model: "GB", Entries: daemonEntries})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := loc.Train(env.Train); err != nil {
		return nil, err
	}
	trainTime := time.Since(start)
	var snap bytes.Buffer
	start = time.Now()
	if err := loc.SaveJSON(&snap); err != nil {
		return nil, err
	}
	saveTime := time.Since(start)

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return map[string]float64{
		"dataset.forest_ms":  ms(in.forestTime),
		"workload.label_qps": float64(len(qs)) / labelTime.Seconds(),
		"estimator.train_ms": ms(trainTime),
		"estimator.save_ms":  ms(saveTime),
	}, nil
}
