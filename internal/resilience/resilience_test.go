package resilience

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

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

// fakeClock drives breaker cooldowns without real time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

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
	v, err := empty.EstimateCtx(context.Background(), testQuery)
	if err != nil || v < 1 {
		t.Fatalf("empty chain: v=%v err=%v", v, err)
	}
}

func TestDeadlineBoundsSlowStage(t *testing.T) {
	slow := &stubEst{name: "slow", fn: func(int) (float64, error) {
		time.Sleep(2 * time.Second)
		return 123, nil
	}}
	r := NewResilient(Config{Timeout: 30 * time.Millisecond, LastResort: Constant{Value: 17}},
		Stage{Est: slow},
	)
	start := time.Now()
	res := r.EstimateDetailed(context.Background(), testQuery)
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("deadline not enforced: call took %v", elapsed)
	}
	if res.Estimate != 17 {
		t.Fatalf("expected the last resort to answer, got %+v", res)
	}
	if len(res.Errors) == 0 || !errors.Is(res.Errors[0].Err, context.DeadlineExceeded) {
		t.Fatalf("expected a deadline error, got %v", res.Errors)
	}
}

func TestCallerDeadlineWins(t *testing.T) {
	// A caller context with its own (shorter) deadline is respected; the
	// configured Timeout only applies when the caller brought none.
	slow := &stubEst{name: "slow", fn: func(int) (float64, error) {
		time.Sleep(2 * time.Second)
		return 123, nil
	}}
	r := NewResilient(Config{Timeout: time.Hour, LastResort: Constant{Value: 3}}, Stage{Est: slow})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := r.EstimateDetailed(ctx, testQuery)
	if time.Since(start) > time.Second {
		t.Fatal("caller deadline ignored")
	}
	if res.Estimate != 3 {
		t.Fatalf("expected last resort, got %+v", res)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := newFakeClock()
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         10 * time.Second,
		HalfOpenProbes:   2,
		Clock:            clock.now,
	})
	if b.State() != StateClosed {
		t.Fatal("new breaker not closed")
	}
	for i := 0; i < 3; i++ {
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
	clock.advance(11 * time.Second)
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
		t.Fatalf("breaker not closed after %d probe successes, state %v", 2, b.State())
	}

	// Re-open on a half-open failure.
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Failure()
	}
	clock.advance(11 * time.Second)
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

func TestBreakerShortCircuitsHotPath(t *testing.T) {
	clock := newFakeClock()
	boom := errors.New("down")
	dead := failing(boom)
	backup := healthy(5)
	r := NewResilient(Config{
		Breaker: BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute, HalfOpenProbes: 1, Clock: clock.now},
	},
		Stage{Est: dead},
		Stage{Est: backup},
	)
	for i := 0; i < 10; i++ {
		v, err := r.EstimateCtx(context.Background(), testQuery)
		if err != nil || v != 5 {
			t.Fatalf("call %d: v=%v err=%v", i, v, err)
		}
	}
	// After 3 failures the breaker opened; the dead stage must not have
	// been invoked for the remaining 7 calls.
	if got := dead.callCount(); got != 3 {
		t.Fatalf("dead stage called %d times, want 3 (breaker should short-circuit)", got)
	}
	st := r.Stats()[0]
	if st.State != StateOpen || st.Skipped != 7 || st.Failed != 3 {
		t.Fatalf("unexpected first-stage stats %+v", st)
	}

	// Recovery: the stage comes back; after the cooldown one probe closes
	// the breaker and the stage serves again.
	dead.mu.Lock()
	dead.fn = func(int) (float64, error) { return 99, nil }
	dead.mu.Unlock()
	clock.advance(2 * time.Minute)
	v, err := r.EstimateCtx(context.Background(), testQuery)
	if err != nil || v != 99 {
		t.Fatalf("probe call: v=%v err=%v", v, err)
	}
	if st := r.Stats()[0]; st.State != StateClosed {
		t.Fatalf("breaker did not close after a successful probe: %+v", st)
	}
	v, _ = r.EstimateCtx(context.Background(), testQuery)
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
	clock := newFakeClock()
	refused := core.Unsupported(errors.New("refused"))
	stage := &stubEst{name: "learned", fn: func(call int) (float64, error) {
		switch call {
		case 1:
			return 0, errors.New("down")
		case 2:
			return 0, refused
		}
		return 42, nil
	}}
	r := NewResilient(Config{
		Breaker: BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute, HalfOpenProbes: 1, Clock: clock.now},
	}, Stage{Est: stage}, Stage{Est: healthy(5)})

	r.EstimateDetailed(context.Background(), testQuery) // the failure opens the breaker
	if st := r.Breaker(0).State(); st != StateOpen {
		t.Fatalf("after the failure: %v, want open", st)
	}
	clock.advance(2 * time.Minute)
	if res := r.EstimateDetailed(context.Background(), testQuery); res.Estimate != 5 {
		t.Fatalf("the refused probe: %+v, want the fallback's 5", res)
	}
	if st := r.Breaker(0).State(); st != StateHalfOpen {
		t.Fatalf("after a refused probe: %v, want still half-open", st)
	}
	if res := r.EstimateDetailed(context.Background(), testQuery); res.Estimate != 42 || res.Stage != "learned" {
		t.Fatalf("the next call: %+v, want it admitted as the probe and served by the stage", res)
	}
	if st := r.Breaker(0).State(); st != StateClosed {
		t.Fatalf("after a successful probe: %v, want closed", st)
	}
}
