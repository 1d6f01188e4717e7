package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qfe/internal/testutil"
)

// TestGracefulDrain covers the shutdown contract end to end over a real
// listener: a request in flight when drain begins runs to completion with
// 200, new requests are refused with 503 while draining, the listener closes
// within the drain deadline once the in-flight tail finishes, and Close —
// which has no queue or goroutine left to wait for — returns at once.
func TestGracefulDrain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	est := &blockingEst{started: make(chan struct{}), release: make(chan struct{})}
	srv := newStubServer(t, est, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One request gets admitted and blocks inside the estimator.
	type result struct {
		code int
		body map[string]any
		err  error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
			bytes.NewReader([]byte(`{"sql":"`+stubSQL+`"}`)))
		if err != nil {
			inFlight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var v map[string]any
		err = json.NewDecoder(resp.Body).Decode(&v)
		inFlight <- result{code: resp.StatusCode, body: v, err: err}
	}()
	<-est.started

	// Drain. The in-flight request is still blocked; new work is refused.
	srv.Drain()
	if !srv.draining.Load() {
		t.Fatal("draining = false after Drain")
	}
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		bytes.NewReader([]byte(`{"sql":"`+stubSQL+`"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d, want 503", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", resp.StatusCode)
	}

	// Let the in-flight request finish shortly after Shutdown begins; the
	// listener must then close well within the deadline.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(est.release)
	}()
	const deadline = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("listener did not close within %v: %v", deadline, err)
	}
	if elapsed := time.Since(start); elapsed >= deadline {
		t.Errorf("shutdown took %v, want < %v", elapsed, deadline)
	}
	srv.Close()

	r := <-inFlight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.code != http.StatusOK || r.body["estimate"] != 42.0 {
		t.Errorf("in-flight request: status %d body %v, want 200 with estimate 42", r.code, r.body)
	}

	snap := srv.Metrics().Snapshot()
	if snap["drained_total"] != int64(1) {
		t.Errorf("drained_total = %v, want 1", snap["drained_total"])
	}
	if snap["requests_total"] != int64(1) {
		t.Errorf("requests_total = %v, want 1 (the drained request was never admitted)", snap["requests_total"])
	}
}
