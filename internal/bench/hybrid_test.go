package bench

import (
	"testing"

	"qfe/internal/catalog"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/workload"
)

func TestHybridPrunesAndRoutes(t *testing.T) {
	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 600, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	train, err := workload.StratifiedJoinTraining(imdb, schema, 25, 3, 5, 77)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultJOBLightConfig()
	cfg.Count = 20
	cfg.MaxJoins = 2
	test, err := workload.JOBLight(imdb, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}

	fallback := &estimator.Independence{DB: imdb}
	localCfg := estimator.LocalConfig{
		QFT:          "conjunctive",
		Opts:         core.Options{MaxEntriesPerAttr: 16, AttrSel: true},
		NewRegressor: estimator.NewGBFactory(smokeEnv().gbConfig()),
	}

	// A loose bar prunes everything; a bar of 1 keeps everything.
	loose, err := newHybrid(imdb, hybridConfig{Local: localCfg, MaxQuantileError: 1e12}, fallback)
	if err != nil {
		t.Fatal(err)
	}
	kept, pruned, err := loose.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 0 || pruned == 0 {
		t.Errorf("loose bar: kept=%d pruned=%d, want 0 kept", kept, pruned)
	}
	if loose.NumModels() != 0 {
		t.Errorf("loose bar trained %d models", loose.NumModels())
	}

	strict, err := newHybrid(imdb, hybridConfig{Local: localCfg, MaxQuantileError: 1.0}, fallback)
	if err != nil {
		t.Fatal(err)
	}
	kept, pruned, err = strict.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 0 || kept == 0 {
		t.Errorf("strict bar: kept=%d pruned=%d, want 0 pruned", kept, pruned)
	}

	// A bar between the best and worst per-sub-schema fallback quality must
	// keep some sub-schemas and prune others. Derive it from the data so
	// the test is robust to workload regeneration.
	perSub := map[string][]float64{}
	for _, l := range train {
		qe, err := estimator.Evaluate(fallback, workload.Set{l})
		if err != nil {
			t.Fatal(err)
		}
		key := catalog.SubSchemaKey(l.Query.Tables)
		perSub[key] = append(perSub[key], qe[0])
	}
	var p90s []float64
	for _, qerrs := range perSub {
		p90s = append(p90s, metrics.Quantile(qerrs, 0.9))
	}
	bar := metrics.Quantile(p90s, 0.5)
	if bar < 1 {
		bar = 1
	}

	mid, err := newHybrid(imdb, hybridConfig{Local: localCfg, MaxQuantileError: bar}, fallback)
	if err != nil {
		t.Fatal(err)
	}
	kept, pruned, err = mid.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bar=%.2f: kept=%d pruned=%d models=%d", bar, kept, pruned, mid.NumModels())
	if kept == 0 || pruned == 0 {
		t.Fatalf("median bar should split the sub-schemas (kept=%d pruned=%d)", kept, pruned)
	}
	sum, err := estimator.Summarize(mid, test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hybrid on JOB-light-style: %v", sum)
	if sum.Median < 1 {
		t.Errorf("degenerate summary %v", sum)
	}
	// Routing: a pruned sub-schema's estimate must equal the fallback's.
	for _, l := range train {
		key := catalog.SubSchemaKey(l.Query.Tables)
		if mid.modeled[key] {
			continue
		}
		got, err := mid.Estimate(l.Query)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fallback.Estimate(l.Query)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pruned sub-schema %s did not route to fallback", key)
		}
		break
	}
}

func TestHybridValidation(t *testing.T) {
	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	localCfg := estimator.LocalConfig{
		QFT:          "conjunctive",
		Opts:         core.Options{MaxEntriesPerAttr: 8, AttrSel: false},
		NewRegressor: estimator.NewGBFactory(smokeEnv().gbConfig()),
	}
	if _, err := newHybrid(imdb, hybridConfig{Local: localCfg, MaxQuantileError: 2}, nil); err == nil {
		t.Error("nil fallback accepted")
	}
	if _, err := newHybrid(imdb, hybridConfig{Local: localCfg, MaxQuantileError: 0.5}, &estimator.Independence{DB: imdb}); err == nil {
		t.Error("bar below 1 accepted")
	}
	if _, err := newHybrid(imdb, hybridConfig{Local: localCfg, MaxQuantileError: 2, Quantile: 1.5}, &estimator.Independence{DB: imdb}); err == nil {
		t.Error("quantile above 1 accepted")
	}
}
