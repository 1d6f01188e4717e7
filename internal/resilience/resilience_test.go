package resilience

import (
	"context"
	"errors"
	"math"
	"reflect"
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

// TestEstimateByIsWithDeadline holds EstimateBy(parent, at) to its oracle,
// EstimateDetailed under context.WithDeadline(parent, at): the same stage
// answers, or the same error stops the chain at the same stage. A zero at is
// no deadline, as a parent without one is under a chain with no Timeout.
func TestEstimateByIsWithDeadline(t *testing.T) {
	for _, c := range []struct {
		name string
		in   time.Duration // at, from now; 0: no deadline
		// parentDeadline, when set, gives the parent a deadline this far from now.
		parentDeadline time.Duration
		parentCanceled bool
	}{
		{name: "no deadline"},
		{name: "live", in: time.Hour},
		{name: "expired", in: -time.Second},
		{name: "parent canceled", in: time.Hour, parentCanceled: true},
		{name: "parent with an earlier deadline", in: time.Hour, parentDeadline: time.Minute},
		{name: "parent with an expired deadline", in: time.Hour, parentDeadline: -time.Second},
		{name: "parent with a later deadline", in: time.Minute, parentDeadline: time.Hour},
		{name: "expired parent deadline only", parentDeadline: -time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewResilient(Config{LastResort: Constant{Value: 3}},
				Stage{Name: "learned", Est: healthy(42)}, Stage{Name: "next", Est: healthy(7)})
			now := time.Now()
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.parentDeadline != 0 {
				var stop context.CancelFunc
				parent, stop = context.WithDeadline(parent, now.Add(c.parentDeadline))
				defer stop()
			}
			if c.parentCanceled {
				cancel()
			}
			var at time.Time
			oracle := parent
			if c.in != 0 {
				at = now.Add(c.in)
				var stop context.CancelFunc
				oracle, stop = context.WithDeadline(parent, at)
				defer stop()
			}
			got, want := r.EstimateBy(parent, at, testQuery), r.EstimateDetailed(oracle, testQuery)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("EstimateBy:\n got %+v\nwant %+v (under context.WithDeadline)", got, want)
			}
		})
	}
}

// TestOneQueryFailureSaysNothingOfTheNext: a stage that fails on one query
// shape, five times running, is still asked the next query, and a query it
// answers is its own — served by it, not degraded, with no errors.
func TestOneQueryFailureSaysNothingOfTheNext(t *testing.T) {
	bad := sqlparse.MustParse("SELECT count(*) FROM t WHERE z = 3")
	learned := healthy(42)
	r := NewResilient(Config{LastResort: RowCount{}},
		Stage{Name: "learned", Est: shapeFailing{stubEst: learned, bad: bad}},
		Stage{Name: "independence", Est: healthy(5)},
	)
	for i := 0; i < 5; i++ {
		res := r.EstimateDetailed(context.Background(), bad)
		if res.Stage != "independence" || !res.Degraded || len(res.Errors) != 1 || res.Errors[0].Stage != "learned" {
			t.Fatalf("failing query %d: %+v, want independence, degraded past learned's error", i, res)
		}
	}
	res := r.EstimateDetailed(context.Background(), testQuery)
	if res.Estimate != 42 || res.Stage != "learned" || res.Degraded || len(res.Errors) != 0 {
		t.Fatalf("a healthy query after five failures: %+v, want learned's 42, not degraded, no errors", res)
	}
	if n := learned.callCount(); n != 1 {
		t.Errorf("the learned stub answered %d times, want once: the five failures were the shape's", n)
	}
}

// shapeFailing fails every estimate of bad and hands every other query to
// the stub.
type shapeFailing struct {
	*stubEst
	bad *sqlparse.Query
}

func (s shapeFailing) Estimate(q *sqlparse.Query) (float64, error) {
	if q == s.bad {
		return 0, errors.New("no estimate for this shape")
	}
	return s.stubEst.Estimate(q)
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
// query, asks it again on the next request, and reports the refusal as that
// stage's error, still marked core.ErrUnsupported with its own text.
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
	if n := refuser.callCount(); n != 10 {
		t.Fatalf("the refusing stage was asked %d times over ten requests, want 10", n)
	}
}
