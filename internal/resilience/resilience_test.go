package resilience

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"qfe/internal/clock"
	"qfe/internal/core"
	"qfe/internal/sqlparse"
)

var testQuery = sqlparse.MustParse("SELECT count(*) FROM t WHERE a >= 1 AND b <= 9")

// stubEst is a scriptable estimator: fn receives the 1-based call number.
type stubEst struct {
	name string
	fn   func(call int) (float64, error)

	mu    sync.Mutex
	calls int
}

func (s *stubEst) Name() string { return s.name }

func (s *stubEst) Estimate(*sqlparse.Query) (float64, error) {
	s.mu.Lock()
	s.calls++
	c := s.calls
	fn := s.fn
	s.mu.Unlock()
	return fn(c)
}

func (s *stubEst) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func healthy(v float64) *stubEst {
	return &stubEst{name: "healthy", fn: func(int) (float64, error) { return v, nil }}
}

func failing(err error) *stubEst {
	return &stubEst{name: "failing", fn: func(int) (float64, error) { return 0, err }}
}

func panicking() *stubEst {
	return &stubEst{name: "panicking", fn: func(int) (float64, error) { panic("model exploded") }}
}

// epoch is where each test's fake clock starts.
var epoch = time.Unix(1_700_000_000, 0)

func TestHealthyFirstStageServes(t *testing.T) {
	r := NewResilient(Config{}, Stage{Est: healthy(42)})
	res := r.EstimateDetailed(context.Background(), testQuery)
	if res.Estimate != 42 || res.Stage != "healthy" || res.Degraded {
		t.Fatalf("unexpected result %+v", res)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("healthy call recorded errors: %v", res.Errors)
	}
}

func TestDegradesPastFailingStage(t *testing.T) {
	boom := errors.New("boom")
	r := NewResilient(Config{},
		Stage{Est: failing(boom)},
		Stage{Est: healthy(7)},
	)
	res := r.EstimateDetailed(context.Background(), testQuery)
	if res.Estimate != 7 || res.Stage != "healthy" {
		t.Fatalf("unexpected result %+v", res)
	}
	if !res.Degraded {
		t.Error("second-stage answer not flagged as degraded")
	}
	if len(res.Errors) != 1 || !errors.Is(res.Errors[0].Err, boom) {
		t.Fatalf("expected the failing stage's error, got %v", res.Errors)
	}
}

func TestPanicIsIsolated(t *testing.T) {
	r := NewResilient(Config{},
		Stage{Est: panicking()},
		Stage{Est: healthy(9)},
	)
	res := r.EstimateDetailed(context.Background(), testQuery)
	if res.Estimate != 9 {
		t.Fatalf("panicking stage broke the chain: %+v", res)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0].Err.Error(), "panic") {
		t.Fatalf("panic not converted to a stage error: %v", res.Errors)
	}
}

func TestInvalidEstimatesAreRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
		r := NewResilient(Config{},
			Stage{Name: "bad", Est: healthy(bad)},
			Stage{Est: healthy(5)},
		)
		res := r.EstimateDetailed(context.Background(), testQuery)
		if res.Estimate != 5 || res.Stage != "healthy" {
			t.Errorf("invalid estimate %v served: %+v", bad, res)
		}
	}
	// Sub-1 but valid values are clamped, not rejected.
	r := NewResilient(Config{}, Stage{Name: "tiny", Est: healthy(0.25)})
	res := r.EstimateDetailed(context.Background(), testQuery)
	if res.Estimate != 1 || res.Stage != "tiny" {
		t.Errorf("sub-1 estimate not clamped in place: %+v", res)
	}
}

func TestLastResortAlwaysAnswers(t *testing.T) {
	r := NewResilient(Config{LastResort: RowCount{}},
		Stage{Est: failing(errors.New("a"))},
		Stage{Est: panicking()},
	)
	res := r.EstimateDetailed(context.Background(), testQuery)
	if math.IsNaN(res.Estimate) || math.IsInf(res.Estimate, 0) || res.Estimate < 1 {
		t.Fatalf("last resort returned unusable estimate %v", res.Estimate)
	}
	if res.Stage != "row-count heuristic" || !res.Degraded {
		t.Fatalf("unexpected result %+v", res)
	}
	if len(res.Errors) != 2 {
		t.Fatalf("expected both stage failures recorded, got %v", res.Errors)
	}
	// Even with no stages and no last resort configured, an estimate comes
	// back.
	empty := NewResilient(Config{})
	v, err := empty.Estimate(testQuery)
	if err != nil || v < 1 {
		t.Fatalf("empty chain: v=%v err=%v", v, err)
	}
}

// TestCallerDeadlineWins: a caller context with its own (shorter) deadline is
// respected; the configured Timeout only applies when the caller brought
// none. The chain reads it before each stage, so a stage that sleeps past it
// and fails leaves the next stage untried: the last resort answers.
func TestCallerDeadlineWins(t *testing.T) {
	sleepy := &stubEst{name: "sleepy", fn: func(int) (float64, error) {
		time.Sleep(40 * time.Millisecond)
		return 0, errors.New("late and wrong")
	}}
	next := healthy(7)
	r := NewResilient(Config{Timeout: time.Hour, LastResort: Constant{Value: 3}},
		Stage{Est: sleepy}, Stage{Name: "next", Est: next})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res := r.EstimateDetailed(ctx, testQuery)
	if res.Estimate != 3 || res.Stage != "constant" || !res.Degraded {
		t.Fatalf("expected the last resort, degraded, got %+v", res)
	}
	if next.callCount() != 0 {
		t.Errorf("the next stage ran %d times past the caller's deadline", next.callCount())
	}
	if len(res.Errors) != 2 || res.Errors[1].Stage != "next" || !errors.Is(res.Errors[1].Err, context.DeadlineExceeded) {
		t.Errorf("errors %v, want the sleepy stage's failure, then next skipped at the deadline", res.Errors)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := clock.NewFake(epoch)
	b := &Breaker{clk: clk}
	if b.State() != StateClosed {
		t.Fatal("new breaker not closed")
	}
	for i := 0; i < failureThreshold; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Failure()
	}
	if b.State() != StateOpen {
		t.Fatalf("breaker not open after threshold, state %v", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	clk.Advance(cooldown)
	if !b.Allow() {
		t.Fatal("breaker did not admit a probe after cooldown")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Success()
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the next probe after a success")
	}
	b.Success()
	if b.State() != StateClosed {
		t.Fatalf("breaker not closed after %d probe successes, state %v", halfOpenProbes, b.State())
	}

	// Re-open on a half-open failure.
	for i := 0; i < failureThreshold; i++ {
		b.Allow()
		b.Failure()
	}
	clk.Advance(cooldown)
	if !b.Allow() {
		t.Fatal("no probe admitted")
	}
	b.Failure()
	if b.State() != StateOpen {
		t.Fatalf("half-open failure did not re-open, state %v", b.State())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call")
	}
}

// TestBreakerAutomatonAsShipped drives a chain built with no override through
// the breaker's shipped sizes on a fake clock: four failures leave the breaker
// closed and the fifth opens it; it is still open one nanosecond before 30 s
// and half-open at 30 s, where a call that arrives while the probe is in
// flight is not admitted; two successful probes close it.
func TestBreakerAutomatonAsShipped(t *testing.T) {
	clk := clock.NewFake(epoch)
	var r *Resilient
	var overlapped Result
	stage := &stubEst{name: "learned", fn: func(call int) (float64, error) {
		switch {
		case call <= 5:
			return 0, errors.New("down")
		case call == 6: // the first probe: another request arrives meanwhile
			overlapped = r.EstimateDetailed(context.Background(), testQuery)
		}
		return 42, nil
	}}
	r = NewResilient(Config{Clock: clk}, Stage{Est: stage}, Stage{Est: healthy(5)})
	state := func() BreakerState { return r.Stats()[0].State }

	for i := 1; i <= 4; i++ {
		r.EstimateDetailed(context.Background(), testQuery)
		if st := state(); st != StateClosed {
			t.Fatalf("after %d failures: %v, want closed", i, st)
		}
	}
	r.EstimateDetailed(context.Background(), testQuery)
	if st := state(); st != StateOpen {
		t.Fatalf("after 5 failures: %v, want open", st)
	}
	clk.Advance(30*time.Second - time.Nanosecond)
	if res := r.EstimateDetailed(context.Background(), testQuery); res.Stage != "healthy" || stage.callCount() != 5 {
		t.Fatalf("at 30 s - 1 ns: %+v after %d stage calls, want the breaker still open", res, stage.callCount())
	}
	clk.Advance(time.Nanosecond)
	if res := r.EstimateDetailed(context.Background(), testQuery); res.Estimate != 42 {
		t.Fatalf("the first probe at 30 s: %+v, want the stage's 42", res)
	}
	if overlapped.Stage != "healthy" || len(overlapped.Errors) != 1 || !errors.Is(overlapped.Errors[0].Err, ErrBreakerOpen) {
		t.Fatalf("a request during the probe: %+v, want it skipped past the half-open breaker", overlapped)
	}
	if st := state(); st != StateHalfOpen {
		t.Fatalf("after one successful probe: %v, want half-open", st)
	}
	if res := r.EstimateDetailed(context.Background(), testQuery); res.Estimate != 42 {
		t.Fatalf("the second probe: %+v, want the stage's 42", res)
	}
	if st := state(); st != StateClosed {
		t.Fatalf("after two successful probes: %v, want closed", st)
	}
}

func TestBreakerShortCircuitsHotPath(t *testing.T) {
	clk := clock.NewFake(epoch)
	boom := errors.New("down")
	dead := failing(boom)
	backup := healthy(5)
	r := NewResilient(Config{Clock: clk},
		Stage{Est: dead},
		Stage{Est: backup},
	)
	for i := 0; i < 10; i++ {
		v, err := r.Estimate(testQuery)
		if err != nil || v != 5 {
			t.Fatalf("call %d: v=%v err=%v", i, v, err)
		}
	}
	// After failureThreshold failures the breaker opened; the dead stage
	// must not have been invoked for the remaining calls.
	if got := dead.callCount(); got != failureThreshold {
		t.Fatalf("dead stage called %d times, want %d (breaker should short-circuit)", got, failureThreshold)
	}
	st := r.Stats()[0]
	if st.State != StateOpen || st.Skipped != 10-failureThreshold || st.Failed != failureThreshold {
		t.Fatalf("unexpected first-stage stats %+v", st)
	}

	// Recovery: the stage comes back; after the cooldown the probes close
	// the breaker and the stage serves again.
	dead.mu.Lock()
	dead.fn = func(int) (float64, error) { return 99, nil }
	dead.mu.Unlock()
	clk.Advance(cooldown)
	for i := 0; i < halfOpenProbes; i++ {
		v, err := r.Estimate(testQuery)
		if err != nil || v != 99 {
			t.Fatalf("probe call %d: v=%v err=%v", i, v, err)
		}
	}
	if st := r.Stats()[0]; st.State != StateClosed {
		t.Fatalf("breaker did not close after its successful probes: %+v", st)
	}
	v, _ := r.Estimate(testQuery)
	if v != 99 {
		t.Fatalf("recovered stage not serving, got %v", v)
	}
}

func TestEstimateNeverErrors(t *testing.T) {
	r := NewResilient(Config{},
		Stage{Est: failing(errors.New("x"))},
		Stage{Est: panicking()},
		Stage{Est: healthy(math.NaN())},
	)
	for i := 0; i < 20; i++ {
		v, err := r.Estimate(testQuery)
		if err != nil {
			t.Fatalf("Estimate returned error: %v", err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
			t.Fatalf("Estimate returned unusable value %v", v)
		}
	}
}

func TestRowCountHeuristicIsTotal(t *testing.T) {
	rc := RowCount{}
	for _, q := range []*sqlparse.Query{
		nil,
		testQuery,
		sqlparse.MustParse("SELECT count(*) FROM unknown WHERE z = 3"),
		sqlparse.MustParse("SELECT count(*) FROM a, b WHERE a.id = b.a_id AND a.x > 0"),
	} {
		v, err := rc.Estimate(q)
		if err != nil {
			t.Fatalf("RowCount errored: %v", err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
			t.Fatalf("RowCount returned %v for %v", v, q)
		}
	}
}

// refusing is a stage that does not encode the query: its error is marked
// core.ErrUnsupported.
func refusing() *stubEst {
	return &stubEst{name: "refusing", fn: func(int) (float64, error) {
		return 0, core.Unsupported(errors.New("core/conjunctive: disjunctions require Limited Disjunction Encoding"))
	}}
}

// TestRefusalIsNotAFailure: the chain passes over a stage that refuses the
// query, but the refusal is not a failure. Five in a row used to open the
// stage's breaker, and every query was then served by the fallback for the
// cooldown, whether the stage encoded it or not.
func TestRefusalIsNotAFailure(t *testing.T) {
	refuser := refusing()
	r := NewResilient(Config{}, Stage{Name: "learned", Est: refuser}, Stage{Est: healthy(7)})
	for i := 0; i < 10; i++ {
		res := r.EstimateDetailed(context.Background(), testQuery)
		if res.Estimate != 7 || res.Stage != "healthy" || !res.Degraded {
			t.Fatalf("call %d: %+v, want the second stage's 7, degraded", i, res)
		}
		if len(res.Errors) != 1 || !errors.Is(res.Errors[0].Err, core.ErrUnsupported) ||
			res.Errors[0].Err.Error() != "core/conjunctive: disjunctions require Limited Disjunction Encoding" {
			t.Fatalf("call %d: errors %v, want the refusal with its own text", i, res.Errors)
		}
	}
	st := r.Stats()[0]
	if st.State != StateClosed || st.Refused != 10 || st.Failed != 0 || st.Skipped != 0 || refuser.callCount() != 10 {
		t.Fatalf("after ten refusals: %+v, %d calls; want closed, 10 refused, 0 failed or skipped, 10 calls", st, refuser.callCount())
	}
}

// TestRefusalFreesTheHalfOpenProbe: a refusal while the breaker is half-open
// reports no outcome, so the probe slot it held is free and the next call is
// the probe; it used to count as the probe's failure and re-open the breaker.
func TestRefusalFreesTheHalfOpenProbe(t *testing.T) {
	clk := clock.NewFake(epoch)
	refused := core.Unsupported(errors.New("refused"))
	stage := &stubEst{name: "learned", fn: func(call int) (float64, error) {
		switch {
		case call <= failureThreshold:
			return 0, errors.New("down")
		case call == failureThreshold+1:
			return 0, refused
		}
		return 42, nil
	}}
	r := NewResilient(Config{Clock: clk}, Stage{Est: stage}, Stage{Est: healthy(5)})

	for i := 0; i < failureThreshold; i++ {
		r.EstimateDetailed(context.Background(), testQuery) // the failures open the breaker
	}
	if st := r.Stats()[0].State; st != StateOpen {
		t.Fatalf("after the failures: %v, want open", st)
	}
	clk.Advance(cooldown)
	if res := r.EstimateDetailed(context.Background(), testQuery); res.Estimate != 5 {
		t.Fatalf("the refused probe: %+v, want the fallback's 5", res)
	}
	if st := r.Stats()[0].State; st != StateHalfOpen {
		t.Fatalf("after a refused probe: %v, want still half-open", st)
	}
	for i := 0; i < halfOpenProbes; i++ {
		if res := r.EstimateDetailed(context.Background(), testQuery); res.Estimate != 42 || res.Stage != "learned" {
			t.Fatalf("call %d after the refusal: %+v, want it admitted as a probe and served by the stage", i, res)
		}
	}
	if st := r.Stats()[0].State; st != StateClosed {
		t.Fatalf("after the successful probes: %v, want closed", st)
	}
}
