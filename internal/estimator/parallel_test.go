package estimator

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// bigSamplingDB builds a table large enough that one Bernoulli scan takes
// measurable time.
func bigSamplingDB(rows int) *table.DB {
	rng := rand.New(rand.NewSource(1))
	a := make([]int64, rows)
	b := make([]int64, rows)
	for i := 0; i < rows; i++ {
		a[i] = int64(rng.Intn(1000))
		b[i] = int64(rng.Intn(50))
	}
	t := table.New("big")
	t.MustAddColumn(table.NewColumn("a", a))
	t.MustAddColumn(table.NewColumn("b", b))
	db := table.NewDB()
	db.MustAdd(t)
	return db
}

// TestSamplingExpiredContextNotBlockedByInflightScan: the satellite fix —
// a second call with an expired context must return promptly even while a
// first scan is in flight, because the scan no longer runs under the
// estimator's mutex.
func TestSamplingExpiredContextNotBlockedByInflightScan(t *testing.T) {
	db := bigSamplingDB(2_000_000)
	s := NewSampling(db, 0.5, 42)
	q := sqlparse.MustParse("SELECT count(*) FROM big WHERE a <= 500 AND b <= 25")

	started := make(chan struct{})
	firstDone := make(chan struct{})
	go func() {
		close(started)
		if _, err := s.Estimate(q); err != nil {
			t.Errorf("in-flight scan failed: %v", err)
		}
		close(firstDone)
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	begin := time.Now()
	_, err := s.EstimateCtx(ctx, q)
	elapsed := time.Since(begin)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("expired-context call took %v; it must not wait for the in-flight scan", elapsed)
	}
	<-firstDone
}

// TestSamplingDeterministicSequence: a fixed seed still yields a
// reproducible sequence of estimates (call i draws from an RNG derived
// from seed and i), and concurrent use is race-free.
func TestSamplingDeterministicSequence(t *testing.T) {
	db := bigSamplingDB(50_000)
	q := sqlparse.MustParse("SELECT count(*) FROM big WHERE a <= 500")

	runSeq := func() []float64 {
		s := NewSampling(db, 0.01, 7)
		out := make([]float64, 5)
		for i := range out {
			est, err := s.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = est
		}
		return out
	}
	a, b := runSeq(), runSeq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: %v vs %v — sampling no longer deterministic under seed", i, a[i], b[i])
		}
	}

	// Concurrent calls must each produce one of the per-call streams'
	// results; with the race detector on, this also proves the scan is
	// lock-free and unshared.
	s := NewSampling(db, 0.01, 7)
	var wg sync.WaitGroup
	got := make([]float64, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			est, err := s.Estimate(q)
			if err != nil {
				t.Errorf("concurrent call: %v", err)
				return
			}
			got[i] = est
		}(i)
	}
	wg.Wait()
	for i, est := range got {
		if est < 1 {
			t.Errorf("concurrent call %d produced %v", i, est)
		}
	}
}

// TestDifferentialEvalExprVsRowQualifies: the executor's vectorized bitmap
// evaluator and the sampling baseline's per-row evaluator must agree on
// randomized expression trees over a seeded table — they are two
// implementations of the same predicate semantics.
func TestDifferentialEvalExprVsRowQualifies(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rows := 2000
	a := make([]int64, rows)
	b := make([]int64, rows)
	c := make([]int64, rows)
	for i := 0; i < rows; i++ {
		a[i] = int64(rng.Intn(100))
		b[i] = int64(rng.Intn(10))
		c[i] = int64(rng.Intn(3))
	}
	tbl := table.New("d")
	tbl.MustAddColumn(table.NewColumn("a", a))
	tbl.MustAddColumn(table.NewColumn("b", b))
	tbl.MustAddColumn(table.NewColumn("c", c))

	attrs := []string{"a", "b", "c"}
	domains := []int64{100, 10, 3}
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}

	var randExpr func(depth int) sqlparse.Expr
	randExpr = func(depth int) sqlparse.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			ai := rng.Intn(len(attrs))
			return &sqlparse.Pred{
				Attr: attrs[ai],
				Op:   ops[rng.Intn(len(ops))],
				Val:  int64(rng.Intn(int(domains[ai]))),
			}
		}
		k := 2 + rng.Intn(2)
		kids := make([]sqlparse.Expr, k)
		for i := range kids {
			kids[i] = randExpr(depth - 1)
		}
		if rng.Intn(2) == 0 {
			return sqlparse.NewAnd(kids...)
		}
		return sqlparse.NewOr(kids...)
	}

	for trial := 0; trial < 300; trial++ {
		expr := randExpr(3)
		bm, err := exec.EvalExpr(tbl, expr)
		if err != nil {
			t.Fatalf("trial %d: EvalExpr: %v", trial, err)
		}
		slow := 0
		for r := 0; r < rows; r++ {
			ok, err := rowQualifies(tbl, expr, r)
			if err != nil {
				t.Fatalf("trial %d row %d: rowQualifies: %v", trial, r, err)
			}
			if ok != bm.Get(r) {
				t.Fatalf("trial %d row %d: rowQualifies=%v, bitmap=%v for %v", trial, r, ok, bm.Get(r), expr)
			}
			if ok {
				slow++
			}
		}
		if slow != bm.Count() {
			t.Fatalf("trial %d: row count %d, bitmap count %d", trial, slow, bm.Count())
		}
	}
}

// TestIndependenceConcurrentEstimates: concurrent estimates share only the
// statistics cache, whose lock is held while a column is looked up or
// gathered, not for the whole estimate. Eight goroutines race to gather the
// same columns on a fresh estimator and every answer equals the sequential
// one; under -race this also proves a gathered colStats is read unshared.
func TestIndependenceConcurrentEstimates(t *testing.T) {
	db := bigSamplingDB(50_000)
	qs := []*sqlparse.Query{
		sqlparse.MustParse("SELECT count(*) FROM big WHERE a <= 500"),
		sqlparse.MustParse("SELECT count(*) FROM big WHERE a >= 100 AND a <= 300 AND b <> 7"),
		sqlparse.MustParse("SELECT count(*) FROM big WHERE (a < 10 OR a > 990) AND b = 3"),
		sqlparse.MustParse("SELECT count(*) FROM big WHERE b >= 40"),
	}
	want := make([]float64, len(qs))
	seq := &Independence{DB: db}
	for i, q := range qs {
		var err error
		if want[i], err = seq.Estimate(q); err != nil {
			t.Fatal(err)
		}
	}
	ind := &Independence{DB: db}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(qs)
				if got, err := ind.Estimate(qs[i]); err != nil || got != want[i] {
					t.Errorf("goroutine %d, %s: %v, %v; want %v", g, qs[i], got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
