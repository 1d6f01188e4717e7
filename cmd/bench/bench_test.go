package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

const specPath = "../../BENCHMARK.json"

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(vals, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := iqrShare([]float64{8, 9, 10, 11, 12}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("iqrShare = %v, want 0.2", got)
	}
}

// One noisy segment must not move the reported value: that is the point of
// taking the median over segments.
func TestMedianOfSegments(t *testing.T) {
	ms := time.Millisecond
	bounds := []boundary{
		{at: 0, daemonCPU: 1, clientCPU: 5},
		{at: 100 * ms, daemonCPU: 1.01, clientCPU: 5.002},
		{at: 200 * ms, daemonCPU: 1.02, clientCPU: 5.004},
		{at: 300 * ms, daemonCPU: 1.04, clientCPU: 5.005},
	}
	var samples []sample
	add := func(from, to time.Duration, n int, lat time.Duration, queries int) {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{end: from + (to-from)*time.Duration(i)/time.Duration(n), latency: lat, queries: queries})
		}
	}
	add(0, 100*ms, 10, 2*ms, 1)
	add(100*ms, 200*ms, 10, 2*ms, 1)
	add(200*ms, 300*ms, 2, 50*ms, 1)                                  // a stalled segment
	samples = append(samples, sample{end: 150 * ms, latency: 9 * ms}) // a failure: no queries, no latency sample
	samples = append(samples, sample{end: 301 * ms, latency: ms, queries: 1})

	segs := cutSegments(samples, bounds)
	if len(segs) != 3 {
		t.Fatalf("%d segments, want 3", len(segs))
	}
	if segs[0].queries != 10 || segs[1].queries != 10 || segs[2].queries != 2 {
		t.Fatalf("queries per segment = %d %d %d, want 10 10 2", segs[0].queries, segs[1].queries, segs[2].queries)
	}
	qps := median(column(segs, func(s segment) float64 { return s.qps }))
	if math.Abs(qps-100) > 1e-9 {
		t.Errorf("median qps = %v, want 100", qps)
	}
	if p50 := median(column(segs, func(s segment) float64 { return s.p50ms })); p50 != 2 {
		t.Errorf("median p50 = %v ms, want 2", p50)
	}
	// 10 ms of daemon CPU and 2 ms of client CPU over 10 queries; the stalled
	// segment burned 20 ms over its 2.
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6 }
	if !near(segs[0].daemonCPU, 1000) || !near(segs[0].clientCPU, 200) || !near(segs[2].daemonCPU, 10000) || !near(segs[2].clientCPU, 500) {
		t.Errorf("CPU per query: %+v", segs)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "a", ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{Name: "b", ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps a by 10
		{Name: "c", ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
		{Name: "a.replayed", ID: 5, Parent: 2, StartNS: 200, EndNS: 220, Replayed: true},
		{Name: "a.inner", ID: 6, Parent: 2, StartNS: 12, EndNS: 17},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (30 + 20 + 10), // a, the part of b after a, the part of c inside root
		2: 30 - 20 - 5,
		3: 30, 4: 30, 5: 20, 6: 5,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	totals := totalsByName(spans)
	if got := totals["a"]; got.total != 30 || got.self != 5 || got.n != 1 {
		t.Errorf("totals[a] = %+v", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, false)
	tr.end(id)
	tr = newTracer(2)
	tr.request = 7
	root := tr.begin("request", 0, false)
	kid := tr.begin("layer", root, true)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Request != 7 || !tr.spans[1].Replayed {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].EndNS < tr.spans[1].EndNS || tr.spans[1].StartNS < tr.spans[0].StartNS {
		t.Errorf("child not nested in its parent: %+v", tr.spans)
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (card) estd (x)) S 1 4242 4242 0 -1 4194304 1234 0 0 0 250 75 0 0 20 0 9 0 123456 1000000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	ticks, err := parseProcStat(stat)
	if err != nil || ticks != 325 {
		t.Errorf("parseProcStat = %d, %v; want 325", ticks, err)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 abc 75 0"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
	status := "Name:\tcardestd\nVmPeak:\t  999999 kB\nVmHWM:\t   30720 kB\nVmRSS:\t   20480 kB\nThreads:\t9\n"
	rss, hwm, err := parseProcStatus(status)
	if err != nil || rss != 20480 || hwm != 30720 {
		t.Errorf("parseProcStatus = %v, %v, %v", rss, hwm, err)
	}
	if _, _, err := parseProcStatus("VmRSS:\t 1 kB\n"); err == nil {
		t.Error("parseProcStatus without VmHWM succeeded")
	}
	if _, _, err := parseProcStatus("VmRSS:\t 1 MB\nVmHWM:\t 1 kB\n"); err == nil {
		t.Error("parseProcStatus with a foreign unit succeeded")
	}
}

func TestJudge(t *testing.T) {
	lower := boundedSpec{metricSpec{Name: "p50_ms", Better: "lower"}, 0.10}
	higher := boundedSpec{metricSpec{Name: "qps", Better: "higher"}, 0.10}
	cases := []struct {
		m            boundedSpec
		a, b, sa, sb float64
		want         string
	}{
		{lower, 1, 1.05, 0, 0, verdictOK},
		{lower, 1, 0.5, 0, 0, verdictOK}, // better is never a breach
		{lower, 1, 1.2, 0.02, 0.02, verdictRegressed},
		{lower, 1, 1.2, 0.02, 0.3, verdictUnresolved},
		{higher, 100, 95, 0, 0, verdictOK},
		{higher, 100, 80, 0, 0, verdictRegressed},
		{higher, 100, 130, 0.5, 0.5, verdictOK},
	}
	for _, c := range cases {
		if _, got := judge(c.m, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("judge(%s, %v → %v, spreads %v %v) = %s, want %s", c.m.Name, c.a, c.b, c.sa, c.sb, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) report {
		var r report
		for _, w := range workloads {
			res := &runResult{Workload: w.Name, Correct: true, EndToEnd: map[string]float64{}, Spread: map[string]float64{}}
			for _, m := range spec.EndToEnd {
				res.EndToEnd[m.Name] = 10
			}
			res.EndToEnd["p50_ms"] = 10 * scale
			r.Workloads = append(r.Workloads, res)
		}
		return r
	}
	var out bytes.Buffer
	if n, err := compareReports(&out, spec, mk(1), mk(1.01)); err != nil || n != 0 {
		t.Errorf("equal reports: %d breaches, %v\n%s", n, err, out.String())
	}
	if n, err := compareReports(&out, spec, mk(1), mk(2)); err != nil || n != len(workloads) {
		t.Errorf("doubled p50: %d breaches, %v; want %d", n, err, len(workloads))
	}
	short := mk(1)
	short.Workloads = short.Workloads[:1]
	if _, err := compareReports(&out, spec, mk(1), short); err == nil {
		t.Error("a report missing workloads compared without error")
	}
}

// BENCHMARK.json must survive a trip through the harness's schema unchanged,
// stay inside the driver's limits, and name exactly the workloads and metrics
// the harness produces.
func TestSpecRoundTrip(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json does not round-trip:\nfile: %v\nschema: %v", a, b)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name, "x", "lower")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}

	// A result that lacks a metric, or carries one the spec does not know,
	// is refused rather than printed with a hole in it.
	res := &runResult{Correct: true, Attempted: 1, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
	for _, m := range spec.EndToEnd {
		res.EndToEnd[m.Name] = 1.5
	}
	for _, m := range spec.PerLayer {
		res.PerLayer[m.Name] = 2.5
	}
	for _, traced := range []bool{false, true} {
		line, err := driverLine(spec, res, traced)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		want := len(spec.EndToEnd)
		if traced {
			want = len(spec.PerLayer)
		}
		if len(got.Metrics) != want || !got.Correct || got.Attempted != 1 {
			t.Errorf("driver line (traced %v) = %s", traced, line)
		}
	}
	delete(res.EndToEnd, "qps")
	if _, err := driverLine(spec, res, false); err == nil {
		t.Error("a result without qps was rendered")
	}
	res.PerLayer["made.up"] = 1
	if _, err := driverLine(spec, res, true); err == nil {
		t.Error("a result with an unknown per-layer metric was rendered")
	}
}

// The same seed must give byte-identical request bodies and another seed
// different ones: the daemon only ever sees what --seed generated.
func TestRequestsFollowTheSeed(t *testing.T) {
	build := func(seed int64) *inputs {
		in, err := buildInputs(quickConfig.Rows, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := build(1), build(1), build(2)
	for _, w := range workloads {
		ra, err := a.requests(w)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := b.requests(w)
		rc, _ := c.requests(w)
		if len(ra) != w.Keys/w.Batch {
			t.Errorf("%s: %d requests, want %d", w.Name, len(ra), w.Keys/w.Batch)
		}
		same := 0
		for i := range ra {
			if !bytes.Equal(ra[i].body, rb[i].body) {
				t.Fatalf("%s: request %d differs between two builds of seed 1", w.Name, i)
			}
			if bytes.Equal(ra[i].body, rc[i].body) {
				same++
			}
			if ra[i].first != i*w.Batch || ra[i].n != w.Batch {
				t.Fatalf("%s: request %d covers [%d,+%d)", w.Name, i, ra[i].first, ra[i].n)
			}
			if got := bytes.Contains(ra[i].body, []byte(`"actual"`)); got != w.Feedback {
				t.Fatalf("%s: request %d carries actual = %v", w.Name, i, got)
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of %d requests are identical under seeds 1 and 2", w.Name, same, len(ra))
		}
	}
	seen := map[string]bool{}
	for _, s := range a.sql {
		if seen[s] {
			t.Fatalf("duplicate query in the traffic: %s", s)
		}
		seen[s] = true
	}
}

// One quick end-to-end run against a real daemon: boots cardestd, drives the
// write-path workload, and must pass the correctness gate and produce every
// per-layer metric.
func TestSmokeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a daemon")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out := t.TempDir()
	code, err := run(ctx, options{workload: "feedback-hot", seed: 3, trace: 1, quick: true, outDir: out, specPath: specPath}, nil)
	if err != nil || code != 0 {
		log, _ := os.ReadFile(out + "/feedback-hot-daemon.log")
		t.Fatalf("quick run: exit %d, %v\ndaemon log:\n%s", code, err, log)
	}
	raw, err := os.ReadFile(out + "/trace-feedback-hot.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.EndNS < s.StartNS || s.ID == 0 || s.Request == 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
	for _, want := range []string{"request", "sqlparse.parse", "exec.bind", "core.fingerprint", "resilience.estimate", "estimator.estimate", "core.featurize", "journal.append", "serve.handler"} {
		if !names[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
	if left, _ := os.ReadDir(out); len(left) > 0 {
		for _, e := range left {
			if e.IsDir() {
				t.Errorf("journal directory %s was left behind", e.Name())
			}
		}
	}
}
