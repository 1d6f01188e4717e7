package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// BenchmarkServeProfile is the traffic default.pgo is taken on, with `make
// pgo` (go test -cpuprofile): for each of cmd/bench's four workloads it boots
// cmd/bench's config A through boot and arm (config B, under -journal, for
// feedback-hot), serves the handler on a loopback httptest.Server, so
// net/http's server is sampled too, and drives the workload for shapeTime with
// two closed-loop clients, client k sending bodies k, k+2, … of the cycle as
// cmd/bench's do. It checks the traffic it drove — every answer a 200 from the
// learned stage, the cold workloads' hit ratio at most 0.05 and the warmed
// ones' at least 0.99, every feedback answer handed to the journal — so a drifting
// generator fails instead of profiling errors or cache hits. It reports no
// metric: cmd/bench is the benchmark. -short drives each workload for 0.5 s,
// as `make ci` does to keep those checks running.
func BenchmarkServeProfile(b *testing.B) {
	shapeTime := 7500 * time.Millisecond
	if testing.Short() {
		shapeTime = 500 * time.Millisecond
	}
	opts, err := parseFlags(strings.Fields("-rows 20000 -train 2000 -entries 32"))
	if err != nil {
		b.Fatal(err)
	}
	tr := heldOut(b, opts, benchKeys)
	for _, s := range shapes(benchKeys) {
		o := opts
		if s.feedback {
			o.journalDir = b.TempDir()
		}
		driveShape(b, s, o, s.bodies(b, tr), shapeTime)
	}
	b.ReportMetric(0, "ns/op")
}

// driveShape boots a daemon with o and drives it with bodies for d.
func driveShape(b *testing.B, s shape, o options, bodies [][]byte, d time.Duration) {
	bt, err := boot(o, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	dmn, err := arm(bt, o, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(dmn.srv.Handler())
	defer dmn.close()
	defer srv.Close()
	newClient := func() *http.Client {
		// One transport per client pins it to one keep-alive connection.
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
	}
	post := func(c *http.Client, body []byte, into *census) error {
		resp, err := c.Post(srv.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		return into.add(resp.StatusCode, out, s.batch)
	}

	var all census
	if s.hot {
		c := newClient()
		for _, body := range bodies {
			if err := post(c, body, &all); err != nil {
				b.Fatalf("%s: warming: %v", s.name, err)
			}
		}
		c.CloseIdleConnections()
	}
	hits0, misses0 := cacheCounts(dmn.srv)

	const clients = 2
	var (
		wg       sync.WaitGroup
		censuses [clients]census
		errs     [clients]error
	)
	stop := time.Now().Add(d)
	for k := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := k; time.Now().Before(stop); i += clients {
				if errs[k] = post(c, bodies[i%len(bodies)], &censuses[k]); errs[k] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range clients {
		if errs[k] != nil {
			b.Fatalf("%s: client %d: %v", s.name, k, errs[k])
		}
		all.merge(censuses[k])
	}

	hits, misses := cacheCounts(dmn.srv)
	hits, misses = hits-hits0, misses-misses0
	ratio := float64(hits) / float64(hits+misses)
	b.Logf("%s: %d queries driven for %v by %d clients, hit ratio %.3f; stages %v, %d degraded",
		s.name, censuses[0].queries+censuses[1].queries, d, clients, ratio, all.stages, all.degraded)
	switch {
	case !all.learned():
		b.Fatalf("%s: stages %v, %d degraded, want every one of %d learned", s.name, all.stages, all.degraded, all.queries)
	case s.hot && ratio < 0.99, !s.hot && ratio > 0.05:
		b.Fatalf("%s: cache hit ratio %.3f (%d hits, %d misses)", s.name, ratio, hits, misses)
	}
	// A journal on a slow disk sheds records by design (staging is bounded);
	// what must hold is that every answer reached it.
	if dmn.jnl != nil {
		if st := dmn.jnl.Stats(); st.Appended == 0 || st.Appended+st.Shed != uint64(all.queries) {
			b.Fatalf("%s: journal appended %d records and shed %d for %d answers", s.name, st.Appended, st.Shed, all.queries)
		}
	}
}
