package engine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// trueCards estimates by exact execution: the optimizer's oracle.
type trueCards struct{ db *table.DB }

func (trueCards) Name() string { return "True cardinalities" }
func (o trueCards) Estimate(q *sqlparse.Query) (float64, error) {
	c, err := exec.Count(o.db, q)
	return float64(max(c, 1)), err
}

func testDB(t *testing.T) *table.DB {
	t.Helper()
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 800, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecuteMatchesExactCount(t *testing.T) {
	db := testDB(t)
	schema := dataset.IMDBSchema()
	cfg := workload.DefaultJOBLightConfig()
	cfg.Count = 25
	cfg.Seed = 99
	set, err := workload.JOBLight(db, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := &Optimizer{Est: trueCards{db}}
	for i, l := range set {
		plan, err := opt.ChoosePlan(l.Query)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		st, err := Execute(db, l.Query, plan)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if st.Count != l.Card {
			t.Fatalf("query %d: plan count %d != true %d (%s; plan %s)", i, st.Count, l.Card, l.Query, plan)
		}
	}
}

func TestExecuteResultIndependentOfPlan(t *testing.T) {
	// Any satellite permutation must produce the same count; only the work
	// differs. Compare the oracle-chosen plan against the reversed order.
	db := testDB(t)
	q := sqlparse.MustParse(`SELECT count(*) FROM title, cast_info, movie_keyword, movie_companies
		WHERE title.id = cast_info.movie_id AND title.id = movie_keyword.movie_id
		AND title.id = movie_companies.movie_id AND title.production_year >= 1990
		AND cast_info.role_id = 1`)
	want, err := exec.Count(db, q)
	if err != nil {
		t.Fatal(err)
	}
	opt := &Optimizer{Est: trueCards{db}}
	plan, err := opt.ChoosePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Execute(db, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != want {
		t.Fatalf("optimized plan count %d, want %d", st.Count, want)
	}
	rev := &Plan{Hub: plan.Hub, Satellites: reverse(plan.Satellites)}
	st2, err := Execute(db, q, rev)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Count != want {
		t.Fatalf("reversed plan count %d, want %d", st2.Count, want)
	}
}

func reverse(s []string) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

func TestOptimizerPrefersSelectiveSatelliteFirst(t *testing.T) {
	// With true cardinalities, the optimizer should join the most
	// selective satellite early; verify it never probes more tuples than
	// the worst permutation.
	db := testDB(t)
	q := sqlparse.MustParse(`SELECT count(*) FROM title, cast_info, movie_keyword
		WHERE title.id = cast_info.movie_id AND title.id = movie_keyword.movie_id
		AND cast_info.role_id = 9 AND title.production_year >= 1950`)
	opt := &Optimizer{Est: trueCards{db}}
	plan, err := opt.ChoosePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	chosen, err := Execute(db, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	worstProbe := chosen.ProbeTuples
	perms := [][]string{
		{"cast_info", "movie_keyword"},
		{"movie_keyword", "cast_info"},
	}
	for _, p := range perms {
		st, err := Execute(db, q, &Plan{Hub: "title", Satellites: p})
		if err != nil {
			t.Fatal(err)
		}
		if st.ProbeTuples > worstProbe {
			worstProbe = st.ProbeTuples
		}
		if st.Count != chosen.Count {
			t.Fatal("permutation changed the result")
		}
	}
	if chosen.ProbeTuples > worstProbe {
		t.Errorf("oracle-guided plan probes %d tuples, worse than worst permutation %d", chosen.ProbeTuples, worstProbe)
	}
}

func TestChoosePlanSingleTable(t *testing.T) {
	db := testDB(t)
	q := sqlparse.MustParse("SELECT count(*) FROM title WHERE kind_id = 1")
	opt := &Optimizer{Est: trueCards{db}}
	plan, err := opt.ChoosePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Hub != "title" || len(plan.Satellites) != 0 {
		t.Fatalf("single-table plan = %s", plan)
	}
	st, err := Execute(db, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Count(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != want {
		t.Errorf("count %d, want %d", st.Count, want)
	}
}

// brokenEst fails on every multi-table estimate and panics on single-table
// ones — the worst-behaved estimator the optimizer could be handed. It counts
// the calls it gets.
type brokenEst struct{ calls atomic.Int64 }

func (*brokenEst) Name() string { return "broken" }

func (b *brokenEst) Estimate(q *sqlparse.Query) (float64, error) {
	b.calls.Add(1)
	if len(q.Tables) > 1 {
		return 0, fmt.Errorf("model unavailable")
	}
	panic("model corrupted")
}

func TestOptimizerWithResilientEstimatorNeverAborts(t *testing.T) {
	// The intended production wiring: the estimator is wrapped in the
	// resilience chain, so even an estimator that errors AND panics yields
	// a plan. Handed a failing estimator bare, the optimizer aborts.
	db := testDB(t)
	q := sqlparse.MustParse(`SELECT count(*) FROM title, cast_info, movie_keyword
		WHERE title.id = cast_info.movie_id AND title.id = movie_keyword.movie_id
		AND cast_info.role_id = 1 AND title.production_year >= 1980`)
	want, err := exec.Count(db, q)
	if err != nil {
		t.Fatal(err)
	}
	strict := &Optimizer{Est: &estimator.Independence{DB: table.NewDB()}}
	if _, err := strict.ChoosePlan(q); err == nil {
		t.Fatal("the optimizer accepted a failing estimator")
	}
	broken := &brokenEst{}
	res := resilience.NewResilient(resilience.Config{
		LastResort: resilience.RowCount{DB: db},
	}, resilience.Stage{Name: "broken", Est: broken})
	opt := &Optimizer{Est: res}
	plan, err := opt.ChoosePlan(q)
	if err != nil {
		t.Fatalf("resilient optimizer aborted: %v", err)
	}
	st, err := Execute(db, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != want {
		t.Fatalf("plan count %d, want %d", st.Count, want)
	}
	if broken.calls.Load() == 0 {
		t.Error("broken stage never asked — the chain was not exercised")
	}
}

func TestStarShapeRejectsNonStar(t *testing.T) {
	// A chain a-b-c is not a star with a common hub... except length-2
	// chains; build a 3-join chain via distinct tables.
	q := &sqlparse.Query{
		Tables: []string{"a", "b", "c", "d"},
		Joins: []sqlparse.JoinPred{
			{LeftTable: "a", LeftCol: "x", RightTable: "b", RightCol: "x"},
			{LeftTable: "b", LeftCol: "y", RightTable: "c", RightCol: "y"},
			{LeftTable: "c", LeftCol: "z", RightTable: "d", RightCol: "z"},
		},
	}
	if _, _, err := starShape(q); err == nil {
		t.Error("chain join accepted as star")
	}
}

func TestRunWorkloadOrdersEstimators(t *testing.T) {
	// The Table 4 shape: total runtime under true cardinalities <= total
	// under independence estimates, with both close. We assert correctness
	// of counts and that runtimes are the same order of magnitude.
	db := testDB(t)
	schema := dataset.IMDBSchema()
	cfg := workload.DefaultJOBLightConfig()
	cfg.Count = 20
	cfg.Seed = 5
	set, err := workload.JOBLight(db, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := set.Queries()

	indTime, indStats, err := RunWorkload(db, &Optimizer{Est: &estimator.Independence{DB: db}}, queries)
	if err != nil {
		t.Fatal(err)
	}
	oraTime, oraStats, err := RunWorkload(db, &Optimizer{Est: trueCards{db}}, queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if indStats[i].Count != oraStats[i].Count || indStats[i].Count != set[i].Card {
			t.Fatalf("query %d: counts diverge (ind %d, oracle %d, true %d)",
				i, indStats[i].Count, oraStats[i].Count, set[i].Card)
		}
	}
	var indProbe, oraProbe int64
	for i := range queries {
		indProbe += indStats[i].ProbeTuples
		oraProbe += oraStats[i].ProbeTuples
	}
	t.Logf("independence: %v (%d probes) | oracle: %v (%d probes)", indTime, indProbe, oraTime, oraProbe)
	if oraProbe > indProbe {
		t.Errorf("true-cardinality plans probe more (%d) than independence plans (%d)", oraProbe, indProbe)
	}
}
