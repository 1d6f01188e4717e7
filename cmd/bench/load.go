package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// numClients is the closed loop's width. The callers of a cardinality
// estimator are optimizers that wait for each estimate before planning on,
// so a client sends its next request only when the previous one returned;
// the box has two cores, shared with the daemon, so two clients is also the
// ceiling.
const numClients = 2

// wireResult is one estimate as the daemon renders it.
type wireResult struct {
	Estimate float64 `json:"estimate"`
	Stage    string  `json:"stage"`
	Degraded bool    `json:"degraded"`
	Error    string  `json:"error"`
}

type wireResponse struct {
	wireResult
	Results []wireResult `json:"results"`
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	http *http.Client
	url  string
	buf  bytes.Buffer

	// served[i] is the last learned-stage estimate received for query i (NaN
	// until one arrives); the correctness gate compares it bit for bit with
	// the in-process estimate.
	served []float64
	// next is the cycle position of the client's next request. It carries
	// over from the warm-up into the window, so a cold workload never
	// re-sends what the warm-up just cached.
	next int
	tally
}

// tally counts query outcomes.
type tally struct {
	attempted int // queries sent
	failed    int // transport error, non-200, or per-item error
	invalid   int // 200 without a finite estimate >= 1
	unstable  int // learned estimate differing from an earlier one for the same query
	degraded  int // answered by a fallback stage
	firstErr  string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.invalid += o.invalid
	t.unstable += o.unstable
	t.degraded += o.degraded
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func newClients(base string) []*client {
	cs := make([]*client, numClients)
	for i := range cs {
		served := make([]float64, totalQueries)
		for j := range served {
			served[j] = math.NaN()
		}
		cs[i] = &client{
			// One transport per client pins it to exactly one connection.
			http:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second},
			url:    base + "/v1/estimate",
			served: served,
			next:   i,
		}
	}
	return cs
}

// do sends one request and returns its client-observed latency and how many
// of its queries were answered. Decoding and checking happen after the clock
// stops.
func (c *client) do(r request) (time.Duration, int) {
	c.attempted += r.n
	start := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		c.fail(r.n, "POST: %v", err)
		return time.Since(start), 0
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	latency := time.Since(start)
	if err != nil {
		c.fail(r.n, "read response: %v", err)
		return latency, 0
	}
	if resp.StatusCode != http.StatusOK {
		c.fail(r.n, "status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
		return latency, 0
	}
	var wr wireResponse
	if err := json.Unmarshal(c.buf.Bytes(), &wr); err != nil {
		c.fail(r.n, "decode response: %v", err)
		return latency, 0
	}
	results := wr.Results
	if r.n == 1 && len(results) == 0 {
		results = []wireResult{wr.wireResult}
	}
	if len(results) != r.n {
		c.fail(r.n, "%d results for %d queries", len(results), r.n)
		return latency, 0
	}
	answered := 0
	for k, res := range results {
		i := r.first + k
		switch {
		case res.Error != "":
			c.fail(1, "query %d: %s", i, res.Error)
			continue
		case math.IsNaN(res.Estimate) || math.IsInf(res.Estimate, 0) || res.Estimate < 1:
			c.invalid++
		case res.Degraded || res.Stage != "learned":
			c.degraded++
		default:
			if prev := c.served[i]; !math.IsNaN(prev) && prev != res.Estimate {
				c.unstable++
			}
			c.served[i] = res.Estimate
		}
		answered++
	}
	return latency, answered
}

// window is what one measured phase produced.
type window struct {
	samples []sample
	bounds  []boundary
}

// runPhase drives the closed loop for d: client k sends requests k, k+2, k+4,
// … of the cycle (carrying on where the previous phase stopped), so together
// they walk every distinct request and never send the same key at once. With segments > 0 the daemon's /proc counters
// are read at each segment edge. It returns when every client has its last
// response.
func runPhase(ctx context.Context, clients []*client, reqs []request, pid int, d time.Duration, segments int) (window, error) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	start := time.Now()

	var w window
	var sampleErr error
	var wg sync.WaitGroup
	if segments > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.bounds, sampleErr = sampleBoundaries(ctx, pid, start, d, segments)
		}()
	}
	perClient := make([][]sample, len(clients))
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for ctx.Err() == nil {
				latency, answered := c.do(reqs[c.next%len(reqs)])
				c.next += len(clients)
				perClient[k] = append(perClient[k], sample{end: time.Since(start), latency: latency, queries: answered})
			}
		}(k, c)
	}
	wg.Wait()
	for _, s := range perClient {
		w.samples = append(w.samples, s...)
	}
	return w, sampleErr
}

// sampleBoundaries reads the daemon's CPU time and resident set, and the
// harness's own CPU time, at the start of the window and at the end of each
// of its segments.
func sampleBoundaries(ctx context.Context, pid int, start time.Time, d time.Duration, segments int) ([]boundary, error) {
	bounds := make([]boundary, 0, segments+1)
	for k := 0; k <= segments; k++ {
		due := start.Add(d * time.Duration(k) / time.Duration(segments))
		if k == segments {
			// The last edge must fall inside the window, before the clients stop.
			due = due.Add(-time.Millisecond)
		}
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
			if k < segments {
				return bounds, ctx.Err()
			}
		}
		cpu, err := procCPUSeconds(pid)
		if err != nil {
			return bounds, err
		}
		rss, _, err := procMemMiB(pid)
		if err != nil {
			return bounds, err
		}
		var self syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
			return bounds, err
		}
		own := float64(self.Utime.Sec+self.Stime.Sec) + float64(self.Utime.Usec+self.Stime.Usec)/1e6
		bounds = append(bounds, boundary{at: time.Since(start), daemonCPU: cpu, clientCPU: own, rssMiB: rss})
	}
	return bounds, nil
}

// closeClients drops the keep-alive connections so the daemon's drain has
// nothing to wait for.
func closeClients(clients []*client) {
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
}
