package estimator

import (
	"fmt"
	"math/rand"
	"sync"

	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Sampling is the Bernoulli-sampling baseline of Section 5.2: a fresh
// p-fraction sample of the table is drawn per query, the predicates are
// evaluated exactly on the sample, and the count is scaled by 1/p. Small
// true cardinalities produce the baseline's characteristic tail errors
// (zero sample hits force the minimum estimate of 1).
//
// Only single-table queries are supported, matching the paper's use of the
// baseline on the forest workloads; join sampling would need correlated
// sampling [29], which is out of scope.
//
// It is a harness baseline (Figure 4, ext9), not a serving stage: ext9 scored
// it below independence wherever it answers, and a call rescans the table and
// answers a repeated query differently.
type Sampling struct {
	DB *table.DB
	// Fraction is p; the paper uses 0.001 (0.1%).
	Fraction float64
	// Seed makes the sampling deterministic: call i of the estimator draws
	// its sample from an RNG derived from (Seed, i), so a fixed seed still
	// yields a reproducible sequence of estimates. Deriving a fresh RNG per
	// call keeps the table scan lock-free — mu only guards the call
	// counter, so a slow scan never blocks concurrent callers.
	Seed int64

	mu    sync.Mutex
	calls int64
}

// NewSampling returns the baseline with the paper's 0.1% default.
func NewSampling(db *table.DB, fraction float64, seed int64) *Sampling {
	if fraction <= 0 || fraction > 1 {
		fraction = 0.001
	}
	return &Sampling{DB: db, Fraction: fraction, Seed: seed}
}

// Name implements Estimator.
func (s *Sampling) Name() string { return "Sampling" }

// Estimate implements Estimator. The per-query table scan runs without
// holding any lock, so concurrent calls proceed independently.
func (s *Sampling) Estimate(q *sqlparse.Query) (float64, error) {
	// A short critical section derives this call's RNG stream; the scan
	// itself is lock-free.
	s.mu.Lock()
	call := s.calls
	s.calls++
	s.mu.Unlock()
	// SplitMix64-style odd-constant mixing decorrelates adjacent call
	// streams under a shared seed.
	rng := rand.New(rand.NewSource(s.Seed ^ (call+1)*-7046029254386353131))
	if len(q.Tables) != 1 {
		return 0, fmt.Errorf("estimator: sampling baseline supports single-table queries only")
	}
	t := s.DB.Table(q.Tables[0])
	if t == nil {
		return 0, fmt.Errorf("estimator: unknown table %q", q.Tables[0])
	}
	n := t.NumRows()
	hits := 0
	for r := 0; r < n; r++ {
		if rng.Float64() >= s.Fraction {
			continue
		}
		ok, err := rowQualifies(t, q.Where, r)
		if err != nil {
			return 0, err
		}
		if ok {
			hits++
		}
	}
	est := float64(hits) / s.Fraction
	if est < 1 {
		est = 1
	}
	return est, nil
}

// rowQualifies evaluates expr on a single row of t.
func rowQualifies(t *table.Table, expr sqlparse.Expr, r int) (bool, error) {
	switch n := expr.(type) {
	case nil:
		return true, nil
	case *sqlparse.Pred:
		if n.Str != nil {
			return false, fmt.Errorf("estimator: unbound string predicate %s", n)
		}
		name := n.Attr
		if i := indexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		col := t.Column(name)
		if col == nil {
			return false, fmt.Errorf("estimator: unknown column %q", n.Attr)
		}
		v := col.Vals[r]
		switch n.Op {
		case sqlparse.OpEq:
			return v == n.Val, nil
		case sqlparse.OpNe:
			return v != n.Val, nil
		case sqlparse.OpLt:
			return v < n.Val, nil
		case sqlparse.OpLe:
			return v <= n.Val, nil
		case sqlparse.OpGt:
			return v > n.Val, nil
		case sqlparse.OpGe:
			return v >= n.Val, nil
		}
		return false, fmt.Errorf("estimator: unknown operator in %s", n)
	case *sqlparse.And:
		for _, k := range n.Kids {
			ok, err := rowQualifies(t, k, r)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case *sqlparse.Or:
		for _, k := range n.Kids {
			ok, err := rowQualifies(t, k, r)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("estimator: unknown expr %T", expr)
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}
