// Command parbench measures the sequential-vs-parallel speedup of the three
// hot paths that internal/parallel drives — workload labeling
// (exec.CountManyWorkers), gradient-boosting training (gb.Train), and
// neural-network training (nn.Train) — and writes the results to
// BENCH_parallel.json. Every path is bit-identical across worker counts, so
// the numbers compare wall-clock only.
//
// Usage:
//
//	go run ./cmd/parbench [-out BENCH_parallel.json] [-workers N] [-quick]
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

	"qfe/internal/exec"
	"qfe/internal/ml/gb"
	"qfe/internal/ml/nn"
	"qfe/internal/parallel"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// result is one benchmark row of the JSON report.
type result struct {
	Name     string  `json:"name"`
	SeqNsOp  int64   `json:"seq_ns_op"`
	ParNsOp  int64   `json:"par_ns_op"`
	Speedup  float64 `json:"speedup"`
	Workers  int     `json:"workers"`
	Maxprocs int     `json:"gomaxprocs"`
}

func main() {
	out := flag.String("out", "BENCH_parallel.json", "output JSON path")
	workers := flag.Int("workers", 0, "parallel worker count (0 = one per logical CPU)")
	quick := flag.Bool("quick", false, "shrink problem sizes for a fast smoke run")
	flag.Parse()

	w := parallel.Workers(*workers)
	fmt.Printf("parbench: %d workers, GOMAXPROCS=%d\n", w, runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("parbench: single logical CPU — expect speedup ~1.0; run on multi-core hardware to see the parallel gain")
	}

	scale := 1
	if *quick {
		scale = 4
	}

	results := []result{benchLabeling(w, scale), benchGB(w, scale), benchNN(w, scale)}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "parbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "parbench:", err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Printf("%-12s seq %12d ns/op   par %12d ns/op   speedup %.2fx\n",
			r.Name, r.SeqNsOp, r.ParNsOp, r.Speedup)
	}
	fmt.Println("parbench: wrote", *out)
}

func report(name string, w int, seq, par testing.BenchmarkResult) result {
	r := result{
		Name:     name,
		SeqNsOp:  seq.NsPerOp(),
		ParNsOp:  par.NsPerOp(),
		Workers:  w,
		Maxprocs: runtime.GOMAXPROCS(0),
	}
	if r.ParNsOp > 0 {
		r.Speedup = float64(r.SeqNsOp) / float64(r.ParNsOp)
	}
	return r
}

// benchLabeling measures batch labeling of a query workload with one worker
// versus the configured pool (both share the predicate-bitmap cache).
func benchLabeling(w, scale int) result {
	rows, count := 200_000/scale, 400/scale
	rng := rand.New(rand.NewSource(1))
	a := make([]int64, rows)
	b := make([]int64, rows)
	for i := 0; i < rows; i++ {
		a[i] = int64(rng.Intn(1000))
		b[i] = int64(rng.Intn(10))
	}
	t := table.New("g")
	t.MustAddColumn(table.NewColumn("a", a))
	t.MustAddColumn(table.NewColumn("b", b))
	db := table.NewDB()
	db.MustAdd(t)

	qs := make([]*sqlparse.Query, count)
	for i := range qs {
		lo := int64(rng.Intn(900))
		qs[i] = &sqlparse.Query{Tables: []string{"g"}, Where: sqlparse.NewAnd(
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: lo},
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: lo + int64(rng.Intn(100))},
			&sqlparse.Pred{Attr: "b", Op: sqlparse.OpEq, Val: int64(rng.Intn(10))},
		)}
	}
	ctx := context.Background()
	run := func(workers int) testing.BenchmarkResult {
		return testing.Benchmark(func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				if _, err := exec.CountManyWorkers(ctx, db, qs, workers); err != nil {
					bb.Fatal(err)
				}
			}
		})
	}
	return report("labeling", w, run(1), run(w))
}

// benchGB measures gradient-boosting training with one worker versus the
// configured pool.
func benchGB(w, scale int) result {
	X, y := synthData(2_000/scale, 200)
	run := func(workers int) testing.BenchmarkResult {
		return testing.Benchmark(func(bb *testing.B) {
			cfg := gb.DefaultConfig()
			cfg.NumTrees = 30
			cfg.Workers = workers
			for i := 0; i < bb.N; i++ {
				if _, err := gb.Train(X, y, cfg); err != nil {
					bb.Fatal(err)
				}
			}
		})
	}
	return report("gb-train", w, run(1), run(w))
}

// benchNN measures neural-network training with one worker versus the
// configured pool.
func benchNN(w, scale int) result {
	X, y := synthData(2_000/scale, 100)
	run := func(workers int) testing.BenchmarkResult {
		return testing.Benchmark(func(bb *testing.B) {
			cfg := nn.DefaultConfig()
			cfg.Epochs = 5
			cfg.Workers = workers
			for i := 0; i < bb.N; i++ {
				if _, err := nn.Train(X, y, cfg); err != nil {
					bb.Fatal(err)
				}
			}
		})
	}
	return report("nn-train", w, run(1), run(w))
}

func synthData(n, d int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		X[i] = row
		y[i] = 3*row[0] - 2*row[1] + row[d-1]
	}
	return X, y
}
