package estimator

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"qfe/internal/bench/qft"
	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/exec"
	"qfe/internal/metrics"
	"qfe/internal/ml/gb"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// testEnv builds a small forest table plus conjunctive train/test workloads
// shared across the integration tests.
type testEnv struct {
	tbl   *table.Table
	db    *table.DB
	train workload.Set
	test  workload.Set
}

var envCache *testEnv

func env(t testing.TB) *testEnv {
	t.Helper()
	if envCache != nil {
		return envCache
	}
	tbl, err := dataset.Forest(dataset.ForestConfig{Rows: 4000, QuantAttrs: 5, BinaryAttrs: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	set, err := workload.Conjunctive(tbl, workload.ConjConfig{Count: 2500, MaxAttrs: 5, MaxNotEquals: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	train, test := set.Split(2000)
	envCache = &testEnv{tbl: tbl, db: db, train: train, test: test}
	return envCache
}

func smallGB() gb.Config {
	cfg := gb.DefaultConfig()
	cfg.NumTrees = 60
	cfg.MaxDepth = 6
	cfg.Seed = 1
	return cfg
}

func TestOracleIsPerfect(t *testing.T) {
	e := env(t)
	o := &Oracle{DB: e.db}
	qerrs, err := Evaluate(o, e.test[:50])
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qerrs {
		if q != 1 {
			t.Fatalf("oracle q-error %v at query %d", q, i)
		}
	}
}

func TestIndependenceBaseline(t *testing.T) {
	e := env(t)
	ind := &Independence{DB: e.db}
	s, err := Summarize(ind, e.test)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline must be sane (finite, >= 1) but visibly imperfect on
	// correlated data.
	if s.Median < 1 || math.IsInf(s.Mean, 0) || math.IsNaN(s.Mean) {
		t.Fatalf("degenerate summary: %v", s)
	}
	if s.Max <= 1.01 {
		t.Errorf("independence baseline suspiciously perfect (max q-error %v) on correlated data", s.Max)
	}
}

func TestIndependenceSingleAttrBetterThanMultiAttr(t *testing.T) {
	// Single-attribute queries carry no independence error — only the
	// histogram's discretization — so they must fare much better than
	// multi-attribute queries, where the independence assumption bites.
	e := env(t)
	ind := &Independence{DB: e.db}
	var single, multi []float64
	for _, l := range e.test {
		est, err := ind.Estimate(l.Query)
		if err != nil {
			t.Fatal(err)
		}
		qe := metrics.QError(float64(l.Card), est)
		if sqlparse.NumAttributes(l.Query) == 1 {
			single = append(single, qe)
		} else if sqlparse.NumAttributes(l.Query) >= 3 {
			multi = append(multi, qe)
		}
	}
	if len(single) == 0 || len(multi) == 0 {
		t.Skip("workload lacks one of the groups")
	}
	sm, mm := metrics.Summarize(single).Median, metrics.Summarize(multi).Median
	t.Logf("independence median q-error: 1 attr = %v, >=3 attrs = %v", sm, mm)
	if sm >= mm {
		t.Errorf("single-attr median %v should beat multi-attr median %v", sm, mm)
	}
}

func TestSamplingBaseline(t *testing.T) {
	e := env(t)
	// A generous 10% sample keeps the test stable.
	s := NewSampling(e.db, 0.10, 7)
	qerrs, err := Evaluate(s, e.test[:100])
	if err != nil {
		t.Fatal(err)
	}
	sum := metrics.Summarize(qerrs)
	if sum.Median > 5 {
		t.Errorf("10%% sampling median q-error %v, want modest", sum.Median)
	}
	// Joins unsupported.
	if _, err := s.Estimate(sqlparse.MustParse("SELECT count(*) FROM a, b WHERE a.x = b.y")); err == nil {
		t.Error("sampling baseline should reject join queries")
	}
}

func TestLocalGBConjunctiveBeatsIndependence(t *testing.T) {
	e := env(t)
	loc, err := NewLocal(e.db, LocalConfig{
		NewFeaturizer: qft.Factory("conjunctive"),
		Opts:          core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
		NewRegressor:  NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(e.train); err != nil {
		t.Fatal(err)
	}
	if loc.NumModels() != 1 {
		t.Fatalf("expected 1 local model, got %d", loc.NumModels())
	}
	// The Figure 4 effect: the independence assumption compounds with the
	// number of attributes, so the learned estimator must win on the
	// multi-attribute queries (>= 3 attrs at this miniature scale).
	var multi workload.Set
	for _, l := range e.test {
		if sqlparse.NumAttributes(l.Query) >= 3 {
			multi = append(multi, l)
		}
	}
	gbSum, err := Summarize(loc, multi)
	if err != nil {
		t.Fatal(err)
	}
	indSum, err := Summarize(&Independence{DB: e.db}, multi)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf(">=3 attrs: GB+conj: %v  |  independence: %v", gbSum, indSum)
	if gbSum.Median >= indSum.Median {
		t.Errorf("GB+conj median %v should beat independence median %v on multi-attribute queries", gbSum.Median, indSum.Median)
	}
	if gbSum.Median > 3 {
		t.Errorf("GB+conj median %v unexpectedly high", gbSum.Median)
	}
	if loc.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive after training")
	}
}

func TestLocalConjunctiveBeatsSimple(t *testing.T) {
	// The paper's headline effect at miniature scale: with multiple
	// predicates per attribute, Universal Conjunction Encoding must beat
	// Singular Predicate Encoding under the same model.
	e := env(t)
	run := func(name string) metrics.Summary {
		loc, err := NewLocal(e.db, LocalConfig{
			NewFeaturizer: qft.Factory(name),
			Opts:          core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
			NewRegressor:  NewGBFactory(smallGB()),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := loc.Train(e.train); err != nil {
			t.Fatal(err)
		}
		s, err := Summarize(loc, e.test)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	conj := run("conjunctive")
	simple := run("simple")
	t.Logf("conjunctive: %v  |  simple: %v", conj, simple)
	if conj.Mean >= simple.Mean {
		t.Errorf("conjunctive mean %v should beat simple mean %v", conj.Mean, simple.Mean)
	}
}

func TestLocalComplexOnMixedWorkload(t *testing.T) {
	e := env(t)
	mixed, err := workload.Mixed(e.tbl, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 600, MaxAttrs: 3, MaxNotEquals: 2, Seed: 9},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := mixed.Split(450)
	loc, err := NewLocal(e.db, LocalConfig{
		NewFeaturizer: qft.Factory("complex"),
		Opts:          core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
		NewRegressor:  NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(train); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(loc, test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("GB+complex on mixed: %v", s)
	if s.Median > 4 {
		t.Errorf("GB+complex median %v on mixed workload, want < 4", s.Median)
	}
	// The conjunctive-only QFTs must refuse the mixed workload.
	conjLoc, err := NewLocal(e.db, LocalConfig{
		NewFeaturizer: qft.Factory("conjunctive"),
		Opts:          core.Options{MaxEntriesPerAttr: 32, AttrSel: true},
		NewRegressor:  NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conjLoc.Train(train); err == nil {
		t.Error("conjunctive QFT should reject disjunctive training queries")
	}
}

func TestEstimateUnknownSubSchema(t *testing.T) {
	e := env(t)
	loc, err := NewLocal(e.db, LocalConfig{
		NewFeaturizer: qft.Factory("conjunctive"),
		Opts:          core.Options{MaxEntriesPerAttr: 8, AttrSel: false},
		NewRegressor:  NewGBFactory(smallGB()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(e.train); err != nil {
		t.Fatal(err)
	}
	if _, err := loc.Estimate(sqlparse.MustParse("SELECT count(*) FROM unknown")); err == nil {
		t.Error("expected error for untrained sub-schema")
	}
}

func TestLocalJoins(t *testing.T) {
	// One end-to-end pass over the join stack: IMDb star schema, training
	// workload, JOB-light-style suite, local GB. Tiny sizes — correctness of
	// plumbing, not accuracy.
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	trainCfg := workload.DefaultJOBLightConfig()
	trainCfg.Count = 400
	trainCfg.Seed = 11
	train, err := workload.JoinTraining(db, schema, trainCfg)
	if err != nil {
		t.Fatal(err)
	}
	testCfg := workload.DefaultJOBLightConfig()
	testCfg.Count = 25
	testCfg.Seed = 12
	test, err := workload.JOBLight(db, schema, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Keep only test queries whose sub-schema also occurs in training, the
	// local-model contract.
	trained := map[string]bool{}
	for _, l := range train {
		trained[catalog.SubSchemaKey(l.Query.Tables)] = true
	}
	var routable workload.Set
	for _, l := range test {
		if trained[catalog.SubSchemaKey(l.Query.Tables)] {
			routable = append(routable, l)
		}
	}
	if len(routable) == 0 {
		t.Fatal("no routable test queries; training workload too small")
	}

	opts := core.Options{MaxEntriesPerAttr: 16, AttrSel: true}

	loc, err := NewLocal(db, LocalConfig{NewFeaturizer: qft.Factory("conjunctive"), Opts: opts, NewRegressor: NewGBFactory(smallGB())})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(train); err != nil {
		t.Fatal(err)
	}
	if loc.NumModels() < 2 {
		t.Errorf("expected several sub-schema models, got %d", loc.NumModels())
	}
	locSum, err := Summarize(loc, routable)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("local GB+conj on joins: %v (models: %d)", locSum, loc.NumModels())
	if math.IsNaN(locSum.Mean) || locSum.Median < 1 {
		t.Fatalf("degenerate local summary %v", locSum)
	}
}

func TestLabelTransformRoundTrip(t *testing.T) {
	for _, card := range []float64{1, 2, 10, 1e6} {
		got := FromLog2Label(Log2Label(card))
		if math.Abs(got-card)/card > 1e-9 {
			t.Errorf("round trip %v -> %v", card, got)
		}
	}
	if FromLog2Label(-100) != 1 {
		t.Error("negative predictions must clamp to 1")
	}
	if FromLog2Label(1e9) <= 0 || math.IsInf(FromLog2Label(1e9), 0) {
		t.Error("huge predictions must stay finite")
	}
}

func TestNewLocalValidation(t *testing.T) {
	e := env(t)
	if _, err := NewLocal(e.db, LocalConfig{NewFeaturizer: qft.Factory("conjunctive")}); err == nil {
		t.Error("nil regressor factory accepted")
	}
	if _, err := NewLocal(e.db, LocalConfig{NewFeaturizer: qft.Factory("nope"), NewRegressor: NewGBFactory(smallGB())}); err == nil {
		t.Error("unknown QFT accepted")
	}
}

func TestZeroOptionsGetPaperDefaults(t *testing.T) {
	e := env(t)
	loc, err := NewLocal(e.db, LocalConfig{
		NewFeaturizer: qft.Factory("conjunctive"),
		NewRegressor:  NewGBFactory(smallGB()),
		// Opts left zero: MaxEntriesPerAttr must default to 64, not 1.
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loc.Train(e.train[:300]); err != nil {
		t.Fatal(err)
	}
	sum, err := Summarize(loc, e.test[:100])
	if err != nil {
		t.Fatal(err)
	}
	// With one partition per attribute the median would be far worse; 64
	// entries keep it in the usual band.
	if sum.Median > 4 {
		t.Errorf("zero-options median %v; defaults not applied?", sum.Median)
	}
}

// TestRefusalsAreUnsupported: an error that depends only on the query's shape
// is marked core.ErrUnsupported, with its own text, so a serving chain passes
// over the stage without counting a failure; an error about the estimator or
// the data is not.
func TestRefusalsAreUnsupported(t *testing.T) {
	e := env(t)
	newLocal := func(name string) *Local {
		cfg := smallGB()
		cfg.NumTrees = 5
		loc, err := NewLocal(e.db, LocalConfig{NewFeaturizer: qft.Factory(name), Opts: core.Options{MaxEntriesPerAttr: 8}, NewRegressor: NewGBFactory(cfg)})
		if err != nil {
			t.Fatal(err)
		}
		return loc
	}
	conj := newLocal("conjunctive")
	if err := conj.Train(e.train[:200]); err != nil {
		t.Fatal(err)
	}
	// wide is the forest with one column more than the model was trained on.
	wide := table.New("forest")
	for _, col := range e.tbl.Columns() {
		wide.MustAddColumn(col)
	}
	wide.MustAddColumn(table.NewColumn("NOPE", make([]int64, e.tbl.NumRows())))
	wideDB := table.NewDB()
	wideDB.MustAdd(wide)
	bind := func(db *table.DB) func(*sqlparse.Query) {
		return func(q *sqlparse.Query) {
			if err := exec.Bind(q, db); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		est  Estimator
		sql  string
		bind func(*sqlparse.Query) // nil: the query stays unbound
		text string                // the error's prefix
	}{
		{"no sub-schema model", newLocal("conjunctive"), "SELECT count(*) FROM forest WHERE A1 >= 3", bind(e.db),
			`estimator: no local model trained for sub-schema "forest"`},
		{"OR under conjunctive", conj, "SELECT count(*) FROM forest WHERE A1 <= 2000 OR A1 >= 3000", bind(e.db),
			`table "forest": core/conjunctive: disjunctions require Limited Disjunction Encoding`},
		// A one-table WHERE reaches the featurizer whole, so a name it cannot
		// place is refused, not dropped by a per-table split: a column the
		// model's table did not have, a column of another table stamped with
		// a column of this one, a predicate nobody bound.
		{"unknown attribute", conj, "SELECT count(*) FROM forest WHERE A1 >= 3 AND NOPE = 5", bind(wideDB),
			`table "forest": core/conjunctive: unknown attribute "NOPE"`},
		{"attribute of another table", conj, "SELECT count(*) FROM forest WHERE A1 >= 3 AND other.A1 = 5", func(q *sqlparse.Query) {
			for _, p := range sqlparse.CollectPreds(q.Where) { // as Bind would stamp them against a table other with A1 first
				p.Col, p.Qualified = int32(e.tbl.ColumnIndex("A1")+1), strings.Contains(p.Attr, ".")
			}
		}, `table "forest": core/conjunctive: unknown attribute "other.A1"`},
		{"unbound predicate", conj, "SELECT count(*) FROM forest WHERE A1 >= 3", nil,
			`table "forest": core/conjunctive: predicate A1 >= 3 is not bound to a column (exec.Bind)`},
		{"independence, OR across attributes", &Independence{DB: e.db}, "SELECT count(*) FROM forest WHERE A1 >= 3 OR A2 <= 7", bind(e.db),
			"estimator: independence baseline requires per-attribute compounds: sqlparse: not a mixed query"},
	} {
		q := sqlparse.MustParse(tc.sql)
		if tc.bind != nil {
			tc.bind(q)
		}
		_, err := tc.est.Estimate(q)
		if !errors.Is(err, core.ErrUnsupported) || !strings.HasPrefix(fmt.Sprint(err), tc.text) {
			t.Errorf("%s: err = %v, want one marked core.ErrUnsupported starting %q", tc.name, err, tc.text)
		}
	}
	// Unknown tables are a catalog matter, not the query's shape.
	if _, err := (&Independence{DB: e.db}).Estimate(sqlparse.MustParse("SELECT count(*) FROM meadow WHERE B1 >= 3")); err == nil || errors.Is(err, core.ErrUnsupported) {
		t.Errorf("unknown table: err = %v, want an error not marked core.ErrUnsupported", err)
	}
}
