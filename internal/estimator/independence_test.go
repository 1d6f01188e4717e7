package estimator

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// refIndependence is the implementation Independence replaced, kept as its
// differential oracle: a private, lazily gathered histogram per column, keyed
// by table and column name under the estimator's own lock, with the bucket
// arithmetic in int64. Independence now reads the catalog's statistics
// (table.Column.FractionLE) and must answer every query it answered with the
// same bits.
type refIndependence struct {
	DB *table.DB

	mu    sync.Mutex
	stats map[string]*refColStats
}

type refColStats struct {
	min, max int64
	n        int
	distinct int
	counts   []int64
}

func (ind *refIndependence) statsFor(t *table.Table, colName string) (*refColStats, error) {
	key := t.Name + "." + colName
	ind.mu.Lock()
	defer ind.mu.Unlock()
	if ind.stats == nil {
		ind.stats = make(map[string]*refColStats)
	}
	if s, ok := ind.stats[key]; ok {
		return s, nil
	}
	col := t.Column(colName)
	if col == nil {
		return nil, fmt.Errorf("estimator: table %q has no column %q", t.Name, colName)
	}
	b := 100
	if d := col.DomainSize(); d < int64(b) {
		b = int(d)
	}
	s := &refColStats{min: col.Min(), max: col.Max(), n: col.Len(), distinct: col.Distinct(), counts: make([]int64, b)}
	domain := s.max - s.min + 1
	for _, v := range col.Vals {
		idx := int((v - s.min) * int64(b) / domain)
		s.counts[idx]++
	}
	ind.stats[key] = s
	return s, nil
}

func (s *refColStats) cdfLE(v int64) float64 {
	if v < s.min {
		return 0
	}
	if v >= s.max {
		return 1
	}
	b := int64(len(s.counts))
	domain := s.max - s.min + 1
	idx := (v - s.min) * b / domain
	var below int64
	for i := int64(0); i < idx; i++ {
		below += s.counts[i]
	}
	lo := s.min + refCeilDiv(idx*domain, b)
	hi := s.min + refCeilDiv((idx+1)*domain, b) - 1
	frac := 1.0
	if hi > lo {
		frac = float64(v-lo+1) / float64(hi-lo+1)
	}
	return (float64(below) + frac*float64(s.counts[idx])) / float64(s.n)
}

func refCeilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

func (s *refColStats) selPred(op sqlparse.CmpOp, val int64) float64 {
	switch op {
	case sqlparse.OpEq:
		if val < s.min || val > s.max {
			return 0
		}
		return 1 / float64(s.distinct)
	case sqlparse.OpNe:
		if val < s.min || val > s.max {
			return 1
		}
		return 1 - 1/float64(s.distinct)
	case sqlparse.OpLe:
		return s.cdfLE(val)
	case sqlparse.OpLt:
		return s.cdfLE(val - 1)
	case sqlparse.OpGe:
		return 1 - s.cdfLE(val-1)
	case sqlparse.OpGt:
		return 1 - s.cdfLE(val)
	}
	return 0.5
}

func (s *refColStats) selExpr(expr sqlparse.Expr) float64 {
	switch n := expr.(type) {
	case *sqlparse.Pred:
		return s.selPred(n.Op, n.Val)
	case *sqlparse.Or:
		sel := 0.0
		for _, k := range n.Kids {
			sk := s.selExpr(k)
			sel = sel + sk - sel*sk
		}
		return sel
	case *sqlparse.And:
		sel := 1.0
		var lower, upper *sqlparse.Pred
		for _, k := range n.Kids {
			p, isPred := k.(*sqlparse.Pred)
			if !isPred {
				sel *= s.selExpr(k)
				continue
			}
			switch p.Op {
			case sqlparse.OpGt, sqlparse.OpGe:
				if lower == nil {
					lower = p
					continue
				}
			case sqlparse.OpLt, sqlparse.OpLe:
				if upper == nil {
					upper = p
					continue
				}
			}
			sel *= s.selPred(p.Op, p.Val)
		}
		switch {
		case lower != nil && upper != nil:
			hiSel := s.selPred(upper.Op, upper.Val)
			loBelow := 1 - s.selPred(lower.Op, lower.Val)
			r := hiSel - loBelow
			if r < defaultRangeSel {
				r = defaultRangeSel
			}
			sel *= r
		case lower != nil:
			sel *= s.selPred(lower.Op, lower.Val)
		case upper != nil:
			sel *= s.selPred(upper.Op, upper.Val)
		}
		return sel
	}
	return 0.5
}

func (ind *refIndependence) Estimate(q *sqlparse.Query) (float64, error) {
	perTable := make([]sqlparse.And, len(q.Tables))
	if err := core.SplitWhereByTable(q, q.Tables, perTable); err != nil {
		return 0, err
	}
	est := 1.0
	for _, tn := range q.Tables {
		t := ind.DB.Table(tn)
		if t == nil {
			return 0, fmt.Errorf("estimator: unknown table %q", tn)
		}
		est *= float64(t.NumRows())
		compounds, err := sqlparse.CompoundPredicates(&perTable[slices.Index(q.Tables, tn)])
		if err != nil {
			return 0, core.Unsupported(fmt.Errorf("estimator: independence baseline requires per-attribute compounds: %w", err))
		}
		for _, cp := range compounds {
			colName := cp.Attr
			for i := 0; i < len(cp.Attr); i++ {
				if cp.Attr[i] == '.' {
					colName = cp.Attr[i+1:]
					break
				}
			}
			stats, err := ind.statsFor(t, colName)
			if err != nil {
				return 0, err
			}
			est *= stats.selExpr(cp.Expr)
		}
	}
	for _, j := range q.Joins {
		lt, rt := ind.DB.Table(j.LeftTable), ind.DB.Table(j.RightTable)
		if lt == nil || rt == nil {
			return 0, fmt.Errorf("estimator: join %s references unknown table", j)
		}
		ls, err := ind.statsFor(lt, j.LeftCol)
		if err != nil {
			return 0, err
		}
		rs, err := ind.statsFor(rt, j.RightCol)
		if err != nil {
			return 0, err
		}
		v := ls.distinct
		if rs.distinct > v {
			v = rs.distinct
		}
		if v > 0 {
			est /= float64(v)
		}
	}
	if est < 1 {
		est = 1
	}
	return est, nil
}

// servedForest is the forest table cardestd and cmd/bench serve (cli's
// BuildForestEnv at its default 20 000 rows).
func servedForest(t testing.TB) (*table.Table, *table.DB) {
	t.Helper()
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 20_000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(forest)
	return forest, db
}

// TestIndependenceMatchesItsOracle: reading the catalog's histograms changes
// no estimate by a bit. The workloads are the forest conjunctive and mixed
// ones the daemon trains on, with literals at and beyond each domain's ends,
// and the IMDb JOB-light-style joins with the base-table and sub-schema
// queries join training draws.
func TestIndependenceMatchesItsOracle(t *testing.T) {
	forest, fdb := servedForest(t)
	conj, err := workload.Conjunctive(forest, workload.ConjConfig{Count: 1500, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 1500, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var edges []*sqlparse.Query
	for _, c := range forest.Columns() {
		for _, v := range []int64{c.Min() - 1, c.Min(), c.Min() + 1, c.Max() - 1, c.Max(), c.Max() + 1} {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				edges = append(edges, sqlparse.MustParse(fmt.Sprintf("SELECT count(*) FROM forest WHERE %s %s %d", c.Name, op, v)))
			}
			edges = append(edges, sqlparse.MustParse(fmt.Sprintf("SELECT count(*) FROM forest WHERE %s >= %d AND %s <= %d", c.Name, v, c.Name, v)))
		}
	}

	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	jobCfg := workload.DefaultJOBLightConfig()
	jobLight, err := workload.JOBLight(imdb, schema, jobCfg)
	if err != nil {
		t.Fatal(err)
	}
	jobCfg.Count, jobCfg.Seed = 400, 11
	joinTrain, err := workload.JoinTraining(imdb, schema, jobCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		db   *table.DB
		qs   []*sqlparse.Query
	}{
		{"forest conjunctive", fdb, conj.Queries()},
		{"forest mixed", fdb, mixed.Queries()},
		{"forest domain ends", fdb, edges},
		{"imdb JOB-light", imdb, jobLight.Queries()},
		{"imdb join training", imdb, joinTrain.Queries()},
	} {
		ind, ref := &Independence{DB: tc.db}, &refIndependence{DB: tc.db}
		for _, q := range tc.qs {
			got, gerr := ind.Estimate(q)
			want, werr := ref.Estimate(q)
			if (gerr == nil) != (werr == nil) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %s: %v (%v), oracle %v (%v)", tc.name, q, got, gerr, want, werr)
			}
		}
		t.Logf("%s: %d estimates bit-identical", tc.name, len(tc.qs))
	}
}

// TestIndependenceEstimateAllocs pins what an estimate allocates on the
// served forest table: the query's split into per-table conjunctions and its
// per-attribute compounds. Looking a column's statistics up allocates
// nothing (a key built per compound per call used to).
func TestIndependenceEstimateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's shadow allocations are counted")
	}
	_, db := servedForest(t)
	ind := &Independence{DB: db}
	for _, tc := range []struct {
		sql  string
		want float64
	}{
		{"SELECT count(*) FROM forest WHERE A1 >= 10", 8},
		{"SELECT count(*) FROM forest WHERE A1 >= 10 AND A2 <= 3000 AND (A3 = 5 OR A3 > 100) AND A5 <> 7", 25},
	} {
		q := sqlparse.MustParse(tc.sql)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := ind.Estimate(q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs/op", tc.sql, allocs)
		if allocs > tc.want {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.sql, allocs, tc.want)
		}
	}
}

// fourRows returns a one-column table t(a) holding vals.
func fourRows(vals ...int64) *table.DB {
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("a", vals))
	db := table.NewDB()
	db.MustAdd(tbl)
	return db
}

// TestIndependenceWideDomains: a column whose max-min times the bucket count
// overflows int64, or whose domain is all of int64, is bucketed exactly, so
// no estimate exceeds the table and none panics. The int64 arithmetic this
// replaced answered 400 rows of 4 for the first column's a <= 2^62 and
// divided by zero on the second.
func TestIndependenceWideDomains(t *testing.T) {
	for _, vals := range [][]int64{
		{0, 1 << 40, 1 << 62, 1<<62 + 5},
		{math.MinInt64, -1, 0, math.MaxInt64},
		{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64},
	} {
		ind := &Independence{DB: fourRows(vals...)}
		for _, v := range append(vals, math.MinInt64, math.MaxInt64, 1<<61, -1<<61) {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				sql := fmt.Sprintf("SELECT count(*) FROM t WHERE a %s %d", op, v)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%v: %s panicked: %v", vals, sql, r)
						}
					}()
					got, err := ind.Estimate(sqlparse.MustParse(sql))
					if err != nil || got < 1 || got > 4 {
						t.Errorf("%v: %s = %v, %v; want within [1, 4]", vals, sql, got, err)
					}
				}()
			}
		}
	}
	ind := &Independence{DB: fourRows(0, 1<<40, 1<<62, 1<<62+5)}
	got, err := ind.Estimate(sqlparse.MustParse("SELECT count(*) FROM t WHERE a <= 4611686018427387904"))
	if err != nil || got < 3 || got > 4 {
		t.Errorf("a <= 2^62 over {0, 2^40, 2^62, 2^62+5} = %v, %v; want within [3, 4] (true 3)", got, err)
	}
}

// TestIndependenceMinInt64Literal: no row is below the smallest int64, so
// a < MinInt64 selects nothing and a >= MinInt64 everything. Computing
// either as cdf(val-1) wrapped to MaxInt64 and inverted both answers.
func TestIndependenceMinInt64Literal(t *testing.T) {
	ind := &Independence{DB: fourRows(-5, 0, 3, 9)}
	for _, tc := range []struct {
		sql  string
		want float64
	}{
		{"SELECT count(*) FROM t WHERE a < -9223372036854775808", 1}, // 0, floored at one row
		{"SELECT count(*) FROM t WHERE a >= -9223372036854775808", 4},
		{"SELECT count(*) FROM t WHERE a <= -9223372036854775808", 1},
		{"SELECT count(*) FROM t WHERE a > -9223372036854775808", 4},
	} {
		if got, err := ind.Estimate(sqlparse.MustParse(tc.sql)); err != nil || got != tc.want {
			t.Errorf("%s = %v, %v; want %v", tc.sql, got, err, tc.want)
		}
	}
}
