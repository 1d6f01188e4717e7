package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"qfe/internal/resilience/faultinject"
)

// This file is the fault-injection acceptance suite: under injected
// error/latency/panic/NaN faults at every chain stage, Resilient must always
// return a finite estimate >= 1 within the deadline and never propagate a
// panic, and must ask every stage on every request. Everything is driven from
// fixed seeds, so a failure here reproduces exactly.

// buildFaultyChain wires a three-stage chain (each stage a fault-injected
// constant estimator) with a row-count last resort.
func buildFaultyChain(cfg faultinject.Config, chainCfg Config) (*Resilient, []*faultinject.Injector) {
	injectors := []*faultinject.Injector{
		faultinject.New(Constant{Value: 1000}, cfg),
		faultinject.New(Constant{Value: 500}, withSeed(cfg, cfg.Seed+1)),
		faultinject.New(Constant{Value: 250}, withSeed(cfg, cfg.Seed+2)),
	}
	if chainCfg.LastResort == nil {
		chainCfg.LastResort = RowCount{}
	}
	r := NewResilient(chainCfg,
		Stage{Name: "learned", Est: injectors[0]},
		Stage{Name: "sampling", Est: injectors[1]},
		Stage{Name: "independence", Est: injectors[2]},
	)
	return r, injectors
}

func withSeed(cfg faultinject.Config, seed int64) faultinject.Config {
	cfg.Seed = seed
	return cfg
}

// TestChainSurvivesMixedFaultStorm hammers the chain with every fault kind
// at once at every stage and asserts the serving invariant on each call.
func TestChainSurvivesMixedFaultStorm(t *testing.T) {
	r, injectors := buildFaultyChain(faultinject.Config{
		Seed:         12345,
		PanicRate:    0.15,
		ErrorRate:    0.25,
		NaNRate:      0.10,
		InfRate:      0.05,
		NegativeRate: 0.05,
	}, Config{})
	const calls = 1000
	degraded := 0
	for i := 0; i < calls; i++ {
		res := r.EstimateDetailed(context.Background(), testQuery)
		if math.IsNaN(res.Estimate) || math.IsInf(res.Estimate, 0) || res.Estimate < 1 {
			t.Fatalf("call %d: unusable estimate %v (stage %s)", i, res.Estimate, res.Stage)
		}
		if res.Degraded {
			degraded++
		}
	}
	var faults int
	for i, in := range injectors {
		c := in.Counts()
		faults += c.Panics + c.Errors + c.NaNs + c.Infs + c.Negatives
		t.Logf("stage %d: %+v", i, c)
	}
	if faults == 0 {
		t.Fatal("fault storm injected nothing — rates or seed are wrong")
	}
	if degraded == 0 {
		t.Fatal("no call degraded under a 60 percent fault rate — chain is not actually degrading")
	}
	t.Logf("%d/%d calls degraded, %d faults injected", degraded, calls, faults)
}

// TestChainSurvivesEveryFaultKindAtFullRate pins each fault kind at rate 1.0
// on every stage: the chain must ride the last resort and still answer, and
// it asks every stage on every request — fifty failures in a row bar no stage
// from the fifty-first.
func TestChainSurvivesEveryFaultKindAtFullRate(t *testing.T) {
	kinds := []struct {
		name string
		cfg  faultinject.Config
	}{
		{"error", faultinject.Config{Seed: 1, ErrorRate: 1}},
		{"panic", faultinject.Config{Seed: 2, PanicRate: 1}},
		{"nan", faultinject.Config{Seed: 3, NaNRate: 1}},
		{"inf", faultinject.Config{Seed: 4, InfRate: 1}},
		{"negative", faultinject.Config{Seed: 5, NegativeRate: 1}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			const calls = 50
			r, injectors := buildFaultyChain(k.cfg, Config{})
			for i := 0; i < calls; i++ {
				res := r.EstimateDetailed(context.Background(), testQuery)
				if math.IsNaN(res.Estimate) || math.IsInf(res.Estimate, 0) || res.Estimate < 1 {
					t.Fatalf("call %d: unusable estimate %v", i, res.Estimate)
				}
				if res.Stage != "row-count heuristic" || len(res.Errors) != len(injectors) {
					t.Fatalf("call %d: fault kind %s at rate 1.0 was served by %q past %v, want the last resort past every stage's failure", i, k.name, res.Stage, res.Errors)
				}
			}
			for i, in := range injectors {
				if got := in.Counts().Calls; got != calls {
					t.Errorf("stage %d: %d calls, want %d", i, got, calls)
				}
			}
		})
	}
}

// TestChainMeetsDeadlineUnderLatencyFault injects latency past the deadline,
// and an error, into every stage: the first stage sleeps its latency out and
// fails, and the chain, its deadline now spent, tries no further stage and
// answers from the last resort — the request costs one stage's latency, not
// three.
func TestChainMeetsDeadlineUnderLatencyFault(t *testing.T) {
	r, injectors := buildFaultyChain(
		faultinject.Config{Seed: 6, ErrorRate: 1, Latency: 40 * time.Millisecond},
		Config{Timeout: 10 * time.Millisecond},
	)
	res := r.EstimateDetailed(context.Background(), testQuery)
	if math.IsNaN(res.Estimate) || math.IsInf(res.Estimate, 0) || res.Estimate < 1 {
		t.Fatalf("unusable estimate %v", res.Estimate)
	}
	if res.Stage != "row-count heuristic" || !res.Degraded {
		t.Fatalf("expected the last resort under latency faults, got %+v", res)
	}
	for i, want := range []int{1, 0, 0} {
		if got := injectors[i].Counts().Calls; got != want {
			t.Errorf("stage %d called %d times, want %d", i, got, want)
		}
	}
	if len(res.Errors) != 2 || !errors.Is(res.Errors[0].Err, faultinject.ErrInjected) ||
		!errors.Is(res.Errors[1].Err, context.DeadlineExceeded) {
		t.Errorf("errors %v, want the first stage's injected error, then the spent deadline", res.Errors)
	}
}

// TestChainIsDeterministic runs the identical fault storm twice and demands
// bit-identical per-call outcomes: same estimates, same serving stages, same
// degradation pattern.
func TestChainIsDeterministic(t *testing.T) {
	type outcome struct {
		est   float64
		stage string
		errs  int
	}
	runOnce := func() []outcome {
		r, _ := buildFaultyChain(faultinject.Config{
			Seed:         777,
			PanicRate:    0.2,
			ErrorRate:    0.2,
			NaNRate:      0.1,
			NegativeRate: 0.1,
		}, Config{})
		out := make([]outcome, 300)
		for i := range out {
			res := r.EstimateDetailed(context.Background(), testQuery)
			out[i] = outcome{est: res.Estimate, stage: res.Stage, errs: len(res.Errors)}
		}
		return out
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged across identical seeded runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestChainUnderConcurrentLoad drives the faulty chain from many goroutines
// with -race in mind: the invariant must hold on every call, and the answers
// must account for every stage call — each stage was asked exactly as often
// as the results name it, as the one that served or one passed over.
func TestChainUnderConcurrentLoad(t *testing.T) {
	r, injectors := buildFaultyChain(faultinject.Config{
		Seed:      99,
		PanicRate: 0.2,
		ErrorRate: 0.2,
		NaNRate:   0.1,
	}, Config{})
	const workers, perWorker = 8, 100
	errs := make(chan error, workers)
	asked := make([]map[string]int, workers) // per worker: stage name → calls its results name
	for w := 0; w < workers; w++ {
		asked[w] = map[string]int{}
		go func() {
			for i := 0; i < perWorker; i++ {
				res := r.EstimateDetailed(context.Background(), testQuery)
				if v := res.Estimate; math.IsNaN(v) || math.IsInf(v, 0) || v < 1 {
					errs <- &unusableErr{v}
					return
				}
				for _, se := range res.Errors {
					asked[w][se.Stage]++
				}
				asked[w][res.Stage]++
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"learned", "sampling", "independence"} {
		named := 0
		for _, a := range asked {
			named += a[name]
		}
		if calls := injectors[i].Counts().Calls; named != calls {
			t.Errorf("stage %s: the results name it %d times for %d calls", name, named, calls)
		}
	}
	if calls := injectors[0].Counts().Calls; calls != workers*perWorker {
		t.Errorf("the first stage was asked %d times for %d requests", calls, workers*perWorker)
	}
}

type unusableErr struct{ v float64 }

func (e *unusableErr) Error() string { return fmt.Sprintf("unusable estimate %v", e.v) }
