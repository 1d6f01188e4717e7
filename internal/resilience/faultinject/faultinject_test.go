package faultinject

import (
	"errors"
	"math"
	"testing"
	"time"

	"qfe/internal/sqlparse"
)

var q = sqlparse.MustParse("SELECT count(*) FROM t WHERE a = 1")

type constEst struct{ v float64 }

func (c constEst) Name() string                              { return "const" }
func (c constEst) Estimate(*sqlparse.Query) (float64, error) { return c.v, nil }

// outcomes collects the observable result kind of n calls.
func outcomes(in *Injector, n int) []Kind {
	out := make([]Kind, n)
	for i := range out {
		out[i] = oneCall(in)
	}
	return out
}

func oneCall(in *Injector) (k Kind) {
	defer func() {
		if recover() != nil {
			k = Panicked
		}
	}()
	v, err := in.Estimate(q)
	switch {
	case errors.Is(err, ErrInjected):
		return Errored
	case err != nil:
		return Kind(-1)
	case math.IsNaN(v):
		return ReturnedNaN
	case math.IsInf(v, 1):
		return ReturnedInf
	case v < 0:
		return ReturnedNegative
	}
	return Clean
}

func TestSameSeedSameFaultSequence(t *testing.T) {
	cfg := Config{Seed: 11, PanicRate: 0.2, ErrorRate: 0.2, NaNRate: 0.2, InfRate: 0.1, NegativeRate: 0.1}
	a := outcomes(New(constEst{v: 10}, cfg), 500)
	b := outcomes(New(constEst{v: 10}, cfg), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: %v vs %v from identical seeds", i, a[i], b[i])
		}
	}
	c := outcomes(New(constEst{v: 10}, Config{Seed: 12, PanicRate: 0.2, ErrorRate: 0.2, NaNRate: 0.2, InfRate: 0.1, NegativeRate: 0.1}), 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical 500-call fault sequences")
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	in := New(constEst{v: 10}, Config{Seed: 42, PanicRate: 0.1, ErrorRate: 0.3, NaNRate: 0.1})
	const n = 10_000
	outcomes(in, n)
	c := in.Counts()
	if c.Calls != n {
		t.Fatalf("counted %d calls, want %d", c.Calls, n)
	}
	within := func(name string, got int, rate float64) {
		want := rate * n
		if math.Abs(float64(got)-want) > 0.02*n+3*math.Sqrt(want) {
			t.Errorf("%s: %d faults for rate %v over %d calls", name, got, rate, n)
		}
	}
	within("panic", c.Panics, 0.1)
	within("error", c.Errors, 0.3)
	within("nan", c.NaNs, 0.1)
	within("clean", c.Clean, 0.5)
}

func TestCleanCallsPassThrough(t *testing.T) {
	in := New(constEst{v: 123}, Config{Seed: 1})
	v, err := in.Estimate(q)
	if err != nil || v != 123 {
		t.Fatalf("clean injector disturbed the call: v=%v err=%v", v, err)
	}
	if c := in.Counts(); c.Clean != 1 || c.Calls != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestLatencySleepsWithoutDeadline(t *testing.T) {
	in := New(constEst{v: 5}, Config{Seed: 1, Latency: 10 * time.Millisecond})
	start := time.Now()
	v, err := in.Estimate(q)
	if err != nil || v != 5 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("latency was not injected")
	}
}
