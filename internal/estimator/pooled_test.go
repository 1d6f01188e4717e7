package estimator

import (
	"fmt"
	"testing"

	"qfe/internal/bench/qft"
	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

func trainedLocalGB(t testing.TB) (*Local, *testEnv) {
	t.Helper()
	e := env(t)
	l, err := NewLocal(e.db, LocalConfig{
		NewFeaturizer: qft.Factory("conjunctive"),
		Opts:          core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
		NewRegressor:  NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Train(e.train[:600]); err != nil {
		t.Fatal(err)
	}
	return l, e
}

// trainedLocalComplex is the daemon's configuration in small: the complex
// QFT behind a GB model, trained on (and handing back held-out) mixed AND/OR
// queries from the benchmark's generator.
func trainedLocalComplex(t testing.TB) (*Local, []*sqlparse.Query) {
	t.Helper()
	if complexCache.l != nil {
		return complexCache.l, complexCache.qs
	}
	e := env(t)
	set, err := workload.Mixed(e.tbl, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 700, MaxAttrs: 5, MaxNotEquals: 5, Seed: 9},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLocal(e.db, LocalConfig{
		NewFeaturizer: qft.Factory("complex"),
		Opts:          core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
		NewRegressor:  NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Train(set[:500]); err != nil {
		t.Fatal(err)
	}
	complexCache.l, complexCache.qs = l, set[500:].Queries()
	return complexCache.l, complexCache.qs
}

// complexCache holds trainedLocalComplex's result: trained once, read-only
// afterwards, shared by the tests that need it.
var complexCache struct {
	l  *Local
	qs []*sqlparse.Query
}

// splitConjunctsByTable groups the top-level conjuncts of q.Where by the
// table they reference (the single table for unqualified attributes) the
// allocating way — a map and a NewAnd per table. It is the reference
// core.SplitWhereByTable is compared against through referenceEstimate.
func splitConjunctsByTable(q *sqlparse.Query) (map[string]sqlparse.Expr, error) {
	single := ""
	if len(q.Tables) == 1 {
		single = q.Tables[0]
	}
	byTable := make(map[string][]sqlparse.Expr)
	for _, kid := range sqlparse.Conjuncts(q.Where) {
		tbl := ""
		for _, p := range sqlparse.CollectPreds(kid) {
			pt := tableOfAttr(p.Attr, single)
			if pt == "" {
				return nil, fmt.Errorf("estimator: unqualified attribute %q in multi-table query", p.Attr)
			}
			if tbl == "" {
				tbl = pt
			} else if tbl != pt {
				return nil, fmt.Errorf("estimator: conjunct %q spans tables", kid)
			}
		}
		byTable[tbl] = append(byTable[tbl], kid)
	}
	out := make(map[string]sqlparse.Expr, len(byTable))
	for tn, kids := range byTable {
		out[tn] = sqlparse.NewAnd(kids...)
	}
	return out, nil
}

func tableOfAttr(attr, single string) string {
	for i := 0; i < len(attr); i++ {
		if attr[i] == '.' {
			return attr[:i]
		}
	}
	return single
}

// referenceEstimate reproduces Estimate without any of its machinery: the
// map-based per-table split, a fresh vector per table from Featurize,
// concatenated by append, through the same regressor and transform.
func referenceEstimate(t testing.TB, l *Local, q *sqlparse.Query) float64 {
	t.Helper()
	lm := l.models[catalog.SubSchemaKey(q.Tables)]
	if lm == nil {
		t.Fatalf("no model for %v", q.Tables)
	}
	perTable, err := splitConjunctsByTable(q)
	if err != nil {
		t.Fatal(err)
	}
	var vec []float64
	for i, tn := range lm.tables {
		sub, err := lm.feats[i].Featurize(perTable[tn])
		if err != nil {
			t.Fatal(err)
		}
		vec = append(vec, sub...)
	}
	return FromLog2Label(lm.reg.Predict(vec))
}

// TestPooledEstimateBitIdentical: the pooled featurize-into path must give
// exactly the estimate the append-based reference gives, query for query.
func TestPooledEstimateBitIdentical(t *testing.T) {
	l, e := trainedLocalGB(t)
	for i, lq := range e.test[:200] {
		got, err := l.Estimate(lq.Query)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEstimate(t, l, lq.Query); got != want {
			t.Fatalf("query %d: pooled %v != reference %v", i, got, want)
		}
	}
	lc, qs := trainedLocalComplex(t)
	for i, q := range qs {
		got, err := lc.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEstimate(t, lc, q); got != want {
			t.Fatalf("mixed query %d: pooled %v != reference %v", i, got, want)
		}
	}
}

// TestEstimateBothSpellingsOfOneAttribute: a query may spell one attribute
// bare and table-qualified at once. Both predicates must reach the model —
// grouping by spelling used to drop one, so "forest.A1 >= x AND A1 <= y"
// was estimated as the one-sided "A1 <= y".
func TestEstimateBothSpellingsOfOneAttribute(t *testing.T) {
	lc, _ := trainedLocalComplex(t)
	lg, e := trainedLocalGB(t)
	col := e.tbl.Column("A1")
	lo, hi := col.Min()+(col.Max()-col.Min())/2, col.Min()+(col.Max()-col.Min())*6/10
	for _, l := range []*Local{lc, lg} {
		var ests []float64
		for _, where := range []string{
			"A1 >= %d AND A1 <= %d",
			"forest.A1 >= %d AND A1 <= %d",
			"A1 >= %d AND forest.A1 <= %d",
			"forest.A1 >= %d AND forest.A1 <= %d",
		} {
			q := sqlparse.MustParse(fmt.Sprintf("SELECT count(*) FROM forest WHERE "+where, lo, hi))
			if err := exec.Bind(q, e.db); err != nil {
				t.Fatal(err)
			}
			est, err := l.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			ests = append(ests, est)
		}
		for i, est := range ests {
			if est != ests[0] {
				t.Errorf("%s: spelling %d estimates %v, all-bare spelling %v", l.Name(), i, est, ests[0])
			}
		}
		q := sqlparse.MustParse(fmt.Sprintf("SELECT count(*) FROM forest WHERE A1 <= %d", hi))
		if err := exec.Bind(q, e.db); err != nil {
			t.Fatal(err)
		}
		oneSided, err := l.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if oneSided == ests[0] {
			t.Fatalf("%s: the range and its upper bound alone estimate the same (%v): the test cannot see a dropped predicate", l.Name(), oneSided)
		}
	}
}

// TestEstimateSteadyStateAllocs pins the per-query garbage of the path a
// cache miss takes in the daemon — the complex QFT over mixed AND/OR queries,
// a different query every call — so future changes can't silently
// reintroduce it. What remains is the sub-schema key, not featurization or
// inference buffers.
func TestEstimateSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector defeats sync.Pool's per-P caches")
	}
	l, qs := trainedLocalComplex(t)
	k := 0
	step := func() {
		if _, err := l.Estimate(qs[k%len(qs)]); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for range qs { // grow the pooled workspaces
		step()
	}
	allocs := testing.AllocsPerRun(2*len(qs), step)
	t.Logf("Local.Estimate allocs/op = %v", allocs)
	if allocs > 6 {
		t.Errorf("Local.Estimate allocs/op = %v, want <= 6 (pooled miss path regressed)", allocs)
	}
}
