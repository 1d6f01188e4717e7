// Command infbench measures the compiled inference fast path against the
// pre-flattening reference implementations and writes the before/after
// comparison to BENCH_infer.json. Three rows, one per path that still has a
// reference twin to be compared with:
//
//   - gb-predict: single-vector gradient-boosting inference — the reference
//     per-tree pointer walk vs. the compiled packed-node forest with the
//     lane-interleaved descent.
//   - nn-predict: single-vector MLP inference — per-call activation
//     allocation vs. the pooled ping-pong scratch.
//   - estimate-batch: the full estimator path — per-query Local.Estimate
//     vs. EstimateBatch amortizing one feature matrix and one batched
//     predict per sub-schema (per-query cost reported).
//
// Every "after" path is bit-identical to its "before" path by construction
// (see the differential tests next to each implementation); the numbers
// here compare wall-clock and steady-state allocations only. Featurization
// has one implementation and therefore no row; cmd/bench's trace times it
// in place (core.featurize_us, core.featurize_allocs).
//
// Usage:
//
//	go run ./cmd/infbench [-out BENCH_infer.json] [-quick]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"qfe/internal/cli"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/ml/gb"
	"qfe/internal/ml/nn"
	"qfe/internal/sqlparse"
)

// result is one before/after row of the JSON report. AfterAllocsOp is the
// steady-state heap allocation count of the fast path (per op; fractional
// for the amortized batch row).
type result struct {
	Name          string  `json:"name"`
	BeforeNsOp    int64   `json:"before_ns_op"`
	AfterNsOp     int64   `json:"after_ns_op"`
	Speedup       float64 `json:"speedup"`
	AfterAllocsOp float64 `json:"after_allocs_op"`
}

// report is the BENCH_infer.json payload.
type report struct {
	Rows     []result `json:"rows"`
	Maxprocs int      `json:"gomaxprocs"`
	Quick    bool     `json:"quick"`
}

func main() {
	out := flag.String("out", "BENCH_infer.json", "output JSON path")
	quick := flag.Bool("quick", false, "shrink problem sizes for a fast smoke run")
	flag.Parse()

	scale := 1
	if *quick {
		scale = 4
	}
	fmt.Printf("infbench: GOMAXPROCS=%d quick=%v\n", runtime.GOMAXPROCS(0), *quick)

	rows := []result{
		benchGBPredict(scale),
		benchNNPredict(scale),
	}
	er, err := benchEstimate(scale)
	if err != nil {
		fatal(err)
	}
	rows = append(rows, er)

	data, err := json.MarshalIndent(report{Rows: rows, Maxprocs: runtime.GOMAXPROCS(0), Quick: *quick}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "infbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "infbench:", err)
		os.Exit(1)
	}
	for _, r := range rows {
		fmt.Printf("%-16s before %10d ns/op   after %10d ns/op   speedup %5.2fx   allocs/op %.2f\n",
			r.Name, r.BeforeNsOp, r.AfterNsOp, r.Speedup, r.AfterAllocsOp)
	}
	fmt.Println("infbench: wrote", *out)
}

func row(name string, before, after testing.BenchmarkResult, opsPerIter int) result {
	div := int64(opsPerIter)
	r := result{
		Name:          name,
		BeforeNsOp:    before.NsPerOp() / div,
		AfterNsOp:     after.NsPerOp() / div,
		AfterAllocsOp: float64(after.AllocsPerOp()) / float64(div),
	}
	if r.AfterNsOp > 0 {
		r.Speedup = float64(r.BeforeNsOp) / float64(r.AfterNsOp)
	}
	return r
}

// synthRows builds a synthetic regression problem at feature-vector scale.
func synthRows(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64() * 10
		}
		X[i] = v
		y[i] = v[0]*3 + v[1]*v[2%d]*0.25 + rng.NormFloat64()
	}
	return X, y
}

// benchGBPredict walks a different feature vector each call — the serving
// pattern — so the layouts' cache behavior, not a single warmed-up path, is
// what the comparison sees.
func benchGBPredict(scale int) result {
	X, y := synthRows(2_000/scale, 200, 1)
	cfg := gb.DefaultConfig()
	cfg.NumTrees = 100 / scale
	m, err := gb.Train(X, y, cfg)
	if err != nil {
		fatal(err)
	}
	before := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.PredictReference(X[i%len(X)])
		}
	})
	after := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Predict(X[i%len(X)])
		}
	})
	return row("gb-predict", before, after, 1)
}

func benchNNPredict(scale int) result {
	X, y := synthRows(2_000/scale, 100, 2)
	cfg := nn.DefaultConfig()
	cfg.Epochs = 2
	m, err := nn.Train(X, y, cfg)
	if err != nil {
		fatal(err)
	}
	before := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.PredictReference(X[i%len(X)])
		}
	})
	after := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Predict(X[i%len(X)])
		}
	})
	return row("nn-predict", before, after, 1)
}

// benchEstimate compares per-query Local.Estimate with the amortized batch
// path over the mixed workload, same trained model.
func benchEstimate(scale int) (er result, err error) {
	env, err := cli.BuildForestEnv(cli.ForestSpec{
		Rows: 20_000 / scale, TrainN: 512 / scale, TestN: 256 / scale, Seed: 7, QFT: "complex",
	})
	if err != nil {
		return er, err
	}
	opts := core.Options{MaxEntriesPerAttr: 32, AttrSel: true}
	cfg := gb.DefaultConfig()
	cfg.NumTrees = 100 / scale
	loc, err := estimator.NewLocal(env.DB, estimator.LocalConfig{
		QFT:          "complex",
		Opts:         opts,
		NewRegressor: estimator.NewGBFactory(cfg),
	})
	if err != nil {
		return er, err
	}
	if err := loc.Train(env.Train); err != nil {
		return er, err
	}
	qs := make([]*sqlparse.Query, len(env.Test))
	for i, lq := range env.Test {
		qs[i] = lq.Query
	}
	// Chunk to the size of a client batch — tens of queries, not the whole
	// workload — so the feature matrix is the size a caller would hand the
	// estimator.
	const batchSize = 64
	ctx := context.Background()
	single := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := loc.Estimate(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(qs); off += batchSize {
				end := off + batchSize
				if end > len(qs) {
					end = len(qs)
				}
				_, errs := loc.EstimateBatch(ctx, qs[off:end])
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	return row("estimate-batch", single, batch, len(qs)), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "infbench:", err)
	os.Exit(1)
}
