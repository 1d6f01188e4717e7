package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qfe/internal/metrics"
)

const (
	// windowSegments is how many equal slices the measured window is cut
	// into; every timing metric is the median over them.
	windowSegments = 10
	// settle lets the journal's 50 ms flush timer fire before the closing
	// scrape, so persisted can catch up with appended.
	settle = 150 * time.Millisecond
	// maxFailRatio bounds failed and degraded answers: absolute, because the
	// expected value is zero.
	maxFailRatio = 0.002
)

// runOptions shape one workload run.
type runOptions struct {
	cfg     daemonConfig
	quick   bool
	window  time.Duration // measured window
	warmup  time.Duration
	boots   int  // daemon boots; setup_s is their median
	layers  bool // run the traced in-process replay afterwards
	outDir  string
	binPath string
}

// runResult is one workload's outcome.
type runResult struct {
	Workload   string             `json:"workload"`
	DaemonArgv []string           `json:"daemon_argv"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	Failures   []string           `json:"failures,omitempty"` // why the gate failed
	EndToEnd   map[string]float64 `json:"end_to_end"`
	// Spread is each timing metric's inter-quartile range over the window's
	// segments as a share of its median: -compare calls a breach unresolved
	// when the run itself was noisier than the bound.
	Spread   map[string]float64 `json:"spread"`
	Samples  int                `json:"samples"`
	SetupS   []float64          `json:"setup_s_boots"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// runWorkload boots a fresh daemon, drives w against it, verifies every
// answer and, with opt.layers, replays the traffic in-process under tracing.
func runWorkload(ctx context.Context, in *inputs, w workload, opt runOptions) (*runResult, error) {
	reqs, err := in.requests(w)
	if err != nil {
		return nil, err
	}
	m, err := measure(ctx, in, w, reqs, opt)
	if err != nil {
		return nil, err
	}
	snapshot, err := os.ReadFile(filepath.Join(opt.outDir, "boot.json"))
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: w.Name, DaemonArgv: m.daemon.argv, SetupS: m.setups,
		EndToEnd: map[string]float64{"setup_s": median(m.setups)}, Spread: map[string]float64{},
		Samples: len(m.win.samples), Attempted: m.measured.attempted, Failed: m.measured.failed, FirstError: m.measured.firstErr,
	}
	m.segs = cutSegments(m.win.samples, m.win.bounds)
	res.timings(w, m)
	if err := res.verify(in, w, m, snapshot); err != nil {
		return nil, err
	}
	if !opt.layers {
		return res, nil
	}
	res.PerLayer, err = layerMetrics(in, snapshot, w, reqs, opt.outDir, opt.quick)
	if err != nil {
		return nil, err
	}
	for k, v := range m.daemonLayers(w, res.PerLayer) {
		res.PerLayer[k] = v
	}
	return res, nil
}

// measurement is what one daemon yields before any arithmetic.
type measurement struct {
	daemon  *daemon
	setups  []float64 // exec → healthy, seconds, one per boot
	clients []*client // served estimates, and the quality pass's tally
	win     window
	segs    []segment

	// warm and measured are the query outcomes of the warm-up and of the
	// window; before and after are the /metrics scrapes around the window.
	warm, measured tally
	before, after  scrape
	bytesPerRecord float64 // journal, feedback workloads
	peakRSS        float64
	stopErr        error // a daemon that did not drain cleanly
}

// measure is the part of a run that talks to the daemon: boot, warm-up,
// measured window, scrapes, quality pass, SIGTERM.
func measure(ctx context.Context, in *inputs, w workload, reqs []request, opt runOptions) (*measurement, error) {
	m := &measurement{}
	// Every boot is a full set-up (build the table, label the training
	// workload, train, publish); all but the last are stopped at once.
	for b := 0; b < opt.boots; b++ {
		journalDir := ""
		if w.Feedback {
			var err error
			if journalDir, err = os.MkdirTemp(opt.outDir, "journal-"); err != nil {
				return nil, err
			}
			defer os.RemoveAll(journalDir)
		}
		d, err := startDaemon(ctx, opt.binPath, opt.outDir, w.Name, opt.cfg, journalDir)
		if err != nil {
			return nil, err
		}
		m.daemon = d
		m.setups = append(m.setups, d.setup.Seconds())
		if b < opt.boots-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	d := m.daemon
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	m.clients = newClients(d.base)
	defer closeClients(m.clients)
	takeTally := func() (t tally) {
		for _, c := range m.clients {
			t.add(c.tally)
			c.tally = tally{}
		}
		return t
	}
	scraper := m.clients[0].http // scrapes ride a client's connection: still two in all

	if _, err := runPhase(ctx, m.clients, reqs, d.pid(), opt.warmup, 0); err != nil {
		return nil, err
	}
	m.warm = takeTally()
	var err error
	if m.before, err = d.scrape(scraper); err != nil {
		return nil, err
	}
	if m.win, err = runPhase(ctx, m.clients, reqs, d.pid(), opt.window, windowSegments); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.measured = takeTally()
	time.Sleep(settle)
	if m.after, err = d.scrape(scraper); err != nil {
		return nil, err
	}
	if w.Feedback {
		if m.bytesPerRecord, err = d.journalBytesPerRecord(scraper); err != nil {
			return nil, err
		}
	}
	if _, m.peakRSS, err = procMemMiB(d.pid()); err != nil {
		return nil, err
	}

	// Quality pass, unmeasured: every distinct query once, in client batches,
	// so q-error is taken over the same 8192 held-out queries on every
	// workload instead of the 64 a hot workload serves. Failures stay in the
	// clients' tallies for the gate.
	all, err := in.requests(workload{Batch: batchSize, Keys: totalQueries})
	if err != nil {
		return nil, err
	}
	for i, r := range all {
		m.clients[i%len(m.clients)].do(r)
	}

	closeClients(m.clients)
	m.stopErr = d.stop()
	stopped = true
	return m, nil
}

// timings fills in the window's end-to-end metrics.
//
// The box this runs on is shared, and its speed drifts by tens of percent
// over tens of seconds; no median over a ten-second window survives that. The
// load generator is the yardstick: its own work per query is fixed (this code
// does not change with the daemon's), it runs in the same instants on the
// same cores, and its CPU cost per query tracks the daemon's slowdowns almost
// perfectly. So each segment has a speed index, client CPU per query over the
// workload's reference, and its timings are reported as they would be at the
// reference speed. CPU time scales with the index outright. Of a request's
// latency only the part that is CPU time scales — the client's plus the
// daemon's, both measured — while timers and other waits do not slow down
// with the machine; throughput in a closed loop moves inversely to latency.
// The raw values are kept as per-layer metrics.
func (res *runResult) timings(w workload, m *measurement) {
	n := len(m.segs)
	qps, p50, cpu := make([]float64, n), make([]float64, n), make([]float64, n)
	for k, s := range m.segs {
		speed := s.clientCPU / w.RefClientCPU
		cpuPart := math.Min(s.p50ms, (s.clientCPU+s.daemonCPU)*float64(w.Batch)/1000)
		p50[k] = s.p50ms - cpuPart*(1-1/speed)
		qps[k] = s.qps * s.p50ms / p50[k]
		cpu[k] = s.daemonCPU / speed
	}
	rss := make([]float64, len(m.win.bounds))
	for i, b := range m.win.bounds {
		rss[i] = b.rssMiB
	}
	for name, vals := range map[string][]float64{"qps": qps, "p50_ms": p50, "cpu_us_per_query": cpu, "rss_mb": rss} {
		res.EndToEnd[name] = median(vals)
		res.Spread[name] = iqrShare(vals)
	}
	// cpu_us_per_query is taken over the whole window, not per segment: /proc
	// counts the daemon's CPU in 10 ms ticks, of which one segment of the
	// timer-bound workload holds under thirty, and a ratio of two CPU clocks
	// read at the same instants needs no median to cancel the neighbours.
	first, last := m.win.bounds[0], m.win.bounds[len(m.win.bounds)-1]
	if client := last.clientCPU - first.clientCPU; client > 0 {
		res.EndToEnd["cpu_us_per_query"] = w.RefClientCPU * (last.daemonCPU - first.daemonCPU) / client
	}
}

// daemon-side ratios over the measured window, shared by the gate and the
// per-layer report.
func (m *measurement) hitRatio() float64 {
	hits := m.after.CacheHits - m.before.CacheHits
	return ratio(hits, hits+m.after.CacheMisses-m.before.CacheMisses)
}

func (m *measurement) degradedRatio() float64 {
	return ratio(m.after.Degraded-m.before.Degraded, m.after.Queries-m.before.Queries)
}

func (m *measurement) shedRatio() float64 {
	shed := m.after.Shed - m.before.Shed
	return ratio(shed, shed+m.after.Requests-m.before.Requests)
}

// persistedRatio is cumulative: after the settle every appended record
// should have been fsynced.
func (m *measurement) persistedRatio() float64 {
	return ratio(m.after.JournalPersisted, m.after.JournalAppended)
}

// verify checks every answer against the daemon's own snapshot, computes
// q-error over the distinct queries, and runs the correctness gate.
func (res *runResult) verify(in *inputs, w workload, m *measurement, snapshot []byte) error {
	gate := func(format string, args ...any) { res.Failures = append(res.Failures, fmt.Sprintf(format, args...)) }

	expected, err := expectedEstimates(in, snapshot)
	if err != nil {
		return err
	}
	// One learned estimate per query: they all equal expected, or the gate fails.
	served := make([]float64, totalQueries)
	mismatched, compared := 0, 0
	for _, c := range m.clients {
		for i, v := range c.served {
			if math.IsNaN(v) {
				continue
			}
			compared++
			if v != expected[i] {
				mismatched++
			}
			served[i] = v
		}
	}
	qerrs := make([]float64, 0, totalQueries)
	for i, v := range served {
		if v != 0 {
			qerrs = append(qerrs, metrics.QError(in.card[i], v))
		}
	}
	res.EndToEnd["qerror_p50"] = percentile(qerrs, 0.5)
	res.EndToEnd["qerror_p95"] = percentile(qerrs, 0.95)

	all := m.warm
	all.add(m.measured)
	var quality tally
	for _, c := range m.clients {
		quality.add(c.tally)
	}
	all.add(quality)
	if m.stopErr != nil {
		gate("%v", m.stopErr)
	}
	if m.measured.attempted == 0 {
		gate("no request was attempted in the measured window")
	}
	if fr := ratio(float64(m.measured.failed), float64(m.measured.attempted)); fr > maxFailRatio {
		gate("fail_ratio %.4f > %.4f (%d of %d; first: %s)", fr, maxFailRatio, m.measured.failed, m.measured.attempted, m.measured.firstErr)
	}
	if quality.failed > 0 {
		gate("quality pass: %d of %d queries failed; first: %s", quality.failed, quality.attempted, quality.firstErr)
	}
	if all.invalid > 0 {
		gate("%d answers carried no finite estimate >= 1", all.invalid)
	}
	if all.unstable > 0 {
		gate("%d learned estimates changed between two answers to the same query", all.unstable)
	}
	if mismatched > 0 {
		gate("%d of %d served learned estimates differ from the in-process estimate of the daemon's snapshot", mismatched, compared)
	}
	if len(qerrs) < totalQueries {
		gate("only %d of %d distinct queries got a learned estimate", len(qerrs), totalQueries)
	}
	if r := m.degradedRatio(); r > maxFailRatio {
		gate("resilience.degraded_ratio %.4f > %.4f", r, maxFailRatio)
	}
	if r := m.hitRatio(); r < w.MinHit || r > w.MaxHit {
		gate("serve.cache_hit_ratio %.4f outside [%.2f, %.2f]: the workload did not exercise its mechanism", r, w.MinHit, w.MaxHit)
	}
	if r := m.shedRatio(); r != 0 {
		gate("serve.shed_ratio %.4f, want 0", r)
	}
	if r := m.persistedRatio(); w.Feedback && (m.after.JournalPersisted == 0 || r < 0.99) {
		gate("journal.persisted_ratio %.4f over %.0f records, want >= 0.99 and > 0 records", r, m.after.JournalPersisted)
	}
	res.Correct = len(res.Failures) == 0
	return nil
}

// daemonLayers is the per-layer metrics that come from the live daemon — the
// client's samples, /metrics deltas over the window, /proc — as opposed to
// the in-process replay, whose metrics (replayed) it combines them with.
func (m *measurement) daemonLayers(w workload, replayed map[string]float64) map[string]float64 {
	end := m.win.bounds[len(m.win.bounds)-1].at
	lat := make([]float64, 0, len(m.win.samples))
	for _, s := range m.win.samples {
		if s.queries > 0 && s.end < end {
			lat = append(lat, float64(s.latency)/float64(time.Millisecond))
		}
	}
	first, last := m.win.bounds[0], m.win.bounds[len(m.win.bounds)-1]
	answered := 0.0
	for _, s := range m.segs {
		answered += float64(s.queries)
	}
	rawP50 := median(column(m.segs, func(s segment) float64 { return s.p50ms }))
	before, after := m.before, m.after
	estLatency := ratio(after.Latency.Sum-before.Latency.Sum, after.Latency.Count-before.Latency.Count)
	appended, shed := after.JournalAppended-before.JournalAppended, after.JournalShed-before.JournalShed
	out := map[string]float64{
		"bench.speed_index":         median(column(m.segs, func(s segment) float64 { return s.clientCPU / w.RefClientCPU })),
		"request.raw_qps":           median(column(m.segs, func(s segment) float64 { return s.qps })),
		"request.raw_p50_ms":        rawP50,
		"cardestd.raw_cpu_us":       ratio((last.daemonCPU-first.daemonCPU)*1e6, answered),
		"request.p90_ms":            percentile(lat, 0.90),
		"request.p99_ms":            percentile(lat, 0.99),
		"request.max_ms":            percentile(lat, 1),
		"request.samples":           float64(len(lat)),
		"cardestd.transport_us":     rawP50*1000 - replayed["serve.handler_us"]*float64(w.Batch),
		"cardestd.boot_cpu_s":       m.daemon.bootCPU,
		"cardestd.peak_rss_mb":      m.peakRSS,
		"serve.est_latency_us":      estLatency,
		"serve.queue_wait_us":       0,
		"serve.batch_size_mean":     ratio(after.BatchedQueries-before.BatchedQueries, after.Batches-before.Batches),
		"serve.cache_hit_ratio":     m.hitRatio(),
		"serve.cache_collapsed":     after.CacheCollapsed - before.CacheCollapsed,
		"serve.cache_evictions":     after.CacheEvictions - before.CacheEvictions,
		"serve.shed_ratio":          m.shedRatio(),
		"serve.resp_4xx":            after.Resp4xx - before.Resp4xx,
		"serve.resp_5xx":            after.Resp5xx - before.Resp5xx,
		"resilience.degraded_ratio": m.degradedRatio(),
		"journal.shed_ratio":        ratio(shed, appended+shed),
		"journal.persisted_ratio":   m.persistedRatio(),
		"journal.flushes":           after.JournalFlushes - before.JournalFlushes,
		"journal.bytes_per_record":  m.bytesPerRecord,
	}
	if w.Batch == 1 {
		// What a single waits inside the daemon beyond its fingerprint and the
		// chain it runs on a miss: the batcher's coalescing window.
		out["serve.queue_wait_us"] = math.Max(0, estLatency-replayed["core.fingerprint_us"]-(1-m.hitRatio())*replayed["resilience.estimate_us"])
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// expectedEstimates is the bare learned model's estimate of every query,
// computed in-process from the snapshot the daemon saved at boot.
func expectedEstimates(in *inputs, snapshot []byte) ([]float64, error) {
	model, _, err := loadModel(snapshot, in.db)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(in.sql))
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for k := 0; k < numClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(in.sql); i += numClients {
				q, err := in.parse(i)
				if err == nil {
					out[i], err = model.Estimate(q)
				}
				if err != nil {
					errs[k] = fmt.Errorf("in-process estimate of query %d: %w", i, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
