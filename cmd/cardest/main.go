// Command cardest is the interactive face of the reproduction: it builds
// the synthetic forest dataset, trains the cardinality estimator the daemon
// serves — Limited Disjunction Encoding ("complex", Algorithm 2) feeding a
// gradient-boosting model — and then estimates queries: either the one
// supplied on the command line or a held-out evaluation set.
//
// Usage:
//
//	cardest [-train 2000] [-rows 20000] [-entries 32] [-seed 1]
//	        [-query "SELECT count(*) FROM forest WHERE ..."]
//	        [-save file] [-load file] [-timeout 0] [-fallback] [-workers 0]
//
// Without -query, the tool evaluates a held-out test workload of mixed
// queries (AND + OR) and prints the paper's q-error summary (mean, median,
// 99th percentile, max). The other QFTs and regressors are the experiment
// harness's (cmd/benchrunner).
//
// -timeout bounds each estimation call; it and -fallback each wrap the
// learned estimator in the degradation chain cardestd serves (cli.Chain:
// learned → independence → row-count heuristic, see internal/resilience), so
// an estimate is always produced even when the learned model fails, refuses
// the query or the deadline is spent.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"qfe/internal/cli"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/metrics"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
)

func main() {
	trainN := flag.Int("train", 2_000, "number of training queries")
	rows := flag.Int("rows", 20_000, "forest table rows")
	entries := flag.Int("entries", 32, "per-attribute feature entries (n)")
	query := flag.String("query", "", "a single SQL query to estimate (optional)")
	seed := flag.Int64("seed", 1, "generation seed")
	save := flag.String("save", "", "write the trained estimator to this JSON file")
	load := flag.String("load", "", "load a trained estimator from this JSON file instead of training")
	timeout := flag.Duration("timeout", 0, "per-call estimation deadline (0 = none); implies -fallback")
	fallback := flag.Bool("fallback", false, "degrade through independence → row-count when the learned model fails or refuses a query")
	workers := flag.Int("workers", 0, "training goroutines for the learned models (0 = one per logical CPU); trained models are bit-identical for every value")
	flag.Parse()

	if err := run(*trainN, *rows, *entries, *query, *seed, *save, *load, *timeout, *fallback, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "cardest:", err)
		os.Exit(1)
	}
}

func run(trainN, rows, entries int, query string, seed int64, savePath, loadPath string, timeout time.Duration, fallback bool, workers int) error {
	if err := cli.ValidateWorkers(workers); err != nil {
		return err
	}
	// -query is read with the flags too: text that does not parse, or asks
	// for a group count no model here estimates, fails before the table is
	// built. Binding needs the table and happens after training.
	var q *sqlparse.Query
	if query != "" {
		var err error
		if q, err = sqlparse.Parse(query); err != nil {
			return err
		}
		if err := estimator.RefuseGroupBy(q); err != nil {
			return err
		}
	}
	fmt.Printf("building forest dataset (%d rows)...\n", rows)
	fmt.Printf("generating and labeling %d training queries...\n", trainN+500)
	env, err := cli.BuildForestEnv(cli.ForestSpec{
		Rows: rows, TrainN: trainN, TestN: 500, Seed: seed,
	})
	if err != nil {
		return err
	}
	db, train, test := env.DB, env.Train, env.Test

	var loc *estimator.Local
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return err
		}
		defer f.Close()
		loc, err = estimator.LoadLocal(f)
		if err != nil {
			return err
		}
		if err := loc.ValidateSchema(db); err != nil {
			return fmt.Errorf("loaded estimator from %s is incompatible with this database: %w", loadPath, err)
		}
		fmt.Printf("loaded %s from %s (%d models)\n", loc.Name(), loadPath, loc.NumModels())
	} else {
		loc, err = cli.NewLocalEstimator(db, cli.TrainSpec{Entries: entries, Workers: workers})
		if err != nil {
			return err
		}
		fmt.Println("training GB + complex...")
		start := time.Now()
		if err := loc.Train(train); err != nil {
			return err
		}
		fmt.Printf("trained in %v (model size %.1f kB)\n", time.Since(start).Round(time.Millisecond),
			float64(loc.MemoryBytes())/1024)
	}
	if savePath != "" {
		f, err := os.Create(savePath)
		if err != nil {
			return err
		}
		if err := loc.SaveJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved estimator to %s\n", savePath)
	}

	// -timeout / -fallback arm the serving chain: the learned model is the
	// first stage, independence degrades behind it, and the row-count
	// heuristic guarantees an answer.
	var serving estimator.Estimator = loc
	var resilient *resilience.Resilient
	if timeout > 0 || fallback {
		resilient = cli.Chain(db, loc, timeout)
		serving = resilient
		fmt.Printf("resilience: %d-stage chain, timeout %v, last resort %s\n",
			len(resilient.Stats()), timeout, resilience.RowCount{}.Name())
	}

	if q != nil {
		if err := exec.Bind(q, db); err != nil {
			return err
		}
		var est float64
		if resilient != nil {
			res := resilient.EstimateDetailed(context.Background(), q)
			est = res.Estimate
			for _, se := range res.Errors {
				verb := "failed"
				if errors.Is(se.Err, core.ErrUnsupported) {
					verb = "refused the query"
				}
				fmt.Printf("degraded:  stage %s %s: %v\n", se.Stage, verb, se.Err)
			}
			fmt.Printf("served by: %s\n", res.Stage)
		} else {
			est, err = loc.Estimate(q)
			if err != nil {
				return err
			}
		}
		truth, err := exec.Count(db, q)
		if err != nil {
			return err
		}
		fmt.Printf("query:     %s\n", q)
		fmt.Printf("estimate:  %.0f\n", est)
		fmt.Printf("truth:     %d\n", truth)
		fmt.Printf("q-error:   %.2f\n", metrics.QError(float64(truth), est))
		return nil
	}

	sum, err := estimator.Summarize(serving, test)
	if err != nil {
		return err
	}
	fmt.Printf("held-out evaluation over %d queries: %v\n", len(test), sum)
	if resilient != nil {
		for _, st := range resilient.Stats() {
			fmt.Printf("stage %-12s breaker=%s served=%d failed=%d refused=%d skipped=%d\n",
				st.Name, st.State, st.Served, st.Failed, st.Refused, st.Skipped)
		}
	}
	return nil
}
