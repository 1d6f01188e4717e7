// Package qfe is a from-scratch Go reproduction of "Enhanced Featurization
// of Queries with Mixed Combinations of Predicates for ML-based Cardinality
// Estimation" (Müller, Woltmann, Lehner — EDBT 2023).
//
// The paper's contribution — four query featurization techniques (QFTs)
// that encode a query's selection predicates into fixed-length numeric
// vectors for learned cardinality estimators — lives in internal/core.
// Everything the evaluation depends on is rebuilt here as well: a SQL
// parser for the paper's query class (internal/sqlparse), an in-memory
// column store and exact COUNT(*) executor (internal/table, internal/exec),
// gradient-boosting / feed-forward / multi-set-convolutional regressors
// (internal/ml/...), local and global estimator deployments plus the
// Postgres-style and sampling baselines (internal/estimator), synthetic
// stand-ins for the forest-covertype and IMDb datasets
// (internal/dataset), workload generators and exact labeling
// (internal/workload), and an experiment harness regenerating every table
// and figure of the paper's Section 5 (internal/bench), which also holds what
// only it reaches: the cardinality-driven join-order optimizer and executor
// of the end-to-end experiment (internal/bench/engine), the histogram
// partitioners and the excluded linear model of the extensions.
//
// Start with README.md for the tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate each evaluation artifact:
//
//	go test -bench=Figure1 -benchtime=1x .
//	QFE_SCALE=smoke go test -bench=. -benchtime=1x .
//
// or run them all through the CLI: go run ./cmd/benchrunner.
package qfe
