package bench

import (
	"fmt"

	"qfe/internal/bench/mscn"
	"qfe/internal/bench/qft"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/workload"
)

// evalBox evaluates an estimator on a labeled set and reduces to the
// five-number boxplot summary of the figure experiments.
func evalBox(est estimator.Estimator, set workload.Set) (metrics.BoxplotStats, error) {
	qerrs, err := estimator.Evaluate(est, set)
	if err != nil {
		return metrics.BoxplotStats{}, err
	}
	return metrics.Boxplot(qerrs), nil
}

// Figure1 regenerates the paper's Figure 1: q-error boxplots for every
// QFT × ML model combination on the forest dataset. The conjunctive
// workload feeds "simple", "range", and "conjunctive"; the mixed workload
// feeds "complex" (separated by a vertical line in the paper; here by a
// marker row).
func Figure1(env *Env) (*Report, error) {
	r := &Report{ID: "fig1", Title: "Error distribution by QFT × ML model (forest)"}
	conjTrain, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixTrain, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()

	// Local GB and NN for all four QFTs.
	for _, model := range []string{"GB", "NN"} {
		for _, name := range qft.Names() {
			train, test := conjTrain, conjTest
			if name == "complex" {
				train, test = mixTrain, mixTest
			}
			loc, err := env.trainLocal(name, model, opts, train)
			if err != nil {
				return nil, fmt.Errorf("fig1 %s+%s: %w", model, name, err)
			}
			box, err := evalBox(loc, test)
			if err != nil {
				return nil, err
			}
			r.Lines = append(r.Lines, boxplotRow(model+" + "+name, box))
		}
	}

	// Global MSCN for the four predicate-set encodings.
	db, err := env.ForestDB()
	if err != nil {
		return nil, err
	}
	schema, err := env.ForestSchema()
	if err != nil {
		return nil, err
	}
	mscnModes := []struct {
		label string
		mode  mscn.Mode
		mixed bool
	}{
		{"MSCN + simple", mscn.Original, false},
		{"MSCN + range", mscn.Range, false},
		{"MSCN + conjunctive", mscn.PerAttribute, false},
		{"MSCN + complex", mscn.PerAttribute, true},
	}
	for _, mc := range mscnModes {
		train, test := conjTrain, conjTest
		if mc.mixed {
			train, test = mixTrain, mixTest
		}
		est, err := mscn.New(db, schema, mc.mode, opts, env.mscnConfig())
		if err != nil {
			return nil, err
		}
		if err := est.Train(train); err != nil {
			return nil, fmt.Errorf("fig1 %s: %w", mc.label, err)
		}
		box, err := evalBox(est, test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, boxplotRow(mc.label, box))
	}
	r.Printf("(complex rows use the mixed query workload; all others conjunctive)")
	return r, nil
}

// Figure2 regenerates Figure 2: GB estimation errors per QFT grouped by the
// number of attributes mentioned in the queries.
func Figure2(env *Env) (*Report, error) {
	return figureByGroup(env, "fig2",
		"Estimation errors per QFT by number of attributes (GB)",
		func(s workload.Set) map[int]workload.Set { return s.GroupByAttrs() }, "attrs")
}

// Figure3 regenerates Figure 3: GB estimation errors per QFT grouped by the
// number of predicates in the queries.
func Figure3(env *Env) (*Report, error) {
	return figureByGroup(env, "fig3",
		"Estimation errors per QFT by number of predicates (GB)",
		func(s workload.Set) map[int]workload.Set { return s.GroupByPreds() }, "preds")
}

func figureByGroup(env *Env, id, title string, group func(workload.Set) map[int]workload.Set, axis string) (*Report, error) {
	r := &Report{ID: id, Title: title}
	conjTrain, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixTrain, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	for _, name := range qft.Names() {
		train, test := conjTrain, conjTest
		if name == "complex" {
			train, test = mixTrain, mixTest
		}
		loc, err := env.trainLocal(name, "GB", opts, train)
		if err != nil {
			return nil, fmt.Errorf("%s GB+%s: %w", id, name, err)
		}
		grouped := group(test)
		for _, k := range sortedKeys(grouped) {
			sub := grouped[k]
			if len(sub) < 5 {
				continue // too few queries for stable quantiles
			}
			box, err := evalBox(loc, sub)
			if err != nil {
				return nil, err
			}
			r.Lines = append(r.Lines, boxplotRow(fmt.Sprintf("%s %s=%d (n=%d)", name, axis, k, len(sub)), box))
		}
	}
	return r, nil
}

// Figure4 regenerates Figure 4: the best QFT × model combinations
// (GB + conjunctive, GB + complex) against the established estimators
// (Postgres-style independence, Bernoulli sampling, MSCN), grouped by the
// number of attributes. MSCN appears only on the conjunctive side — its
// standard implementation does not support disjunctions, exactly as the
// paper notes.
func Figure4(env *Env) (*Report, error) {
	r := &Report{ID: "fig4", Title: "Best QFT × model combinations vs established estimators"}
	db, err := env.ForestDB()
	if err != nil {
		return nil, err
	}
	schema, err := env.ForestSchema()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()

	run := func(section string, train, test workload.Set, qft string, withMSCN bool) error {
		r.Printf("--- %s queries ---", section)
		ours, err := env.trainLocal(qft, "GB", opts, train)
		if err != nil {
			return err
		}
		ests := []estimator.Estimator{
			ours,
			&estimator.Independence{DB: db},
			estimator.NewSampling(db, 0.001, 99),
		}
		if withMSCN {
			m, err := mscn.New(db, schema, mscn.Original, opts, env.mscnConfig())
			if err != nil {
				return err
			}
			if err := m.Train(train); err != nil {
				return err
			}
			ests = append(ests, m)
		}
		grouped := test.GroupByAttrs()
		for _, k := range sortedKeys(grouped) {
			sub := grouped[k]
			if len(sub) < 5 {
				continue
			}
			for _, est := range ests {
				box, err := evalBox(est, sub)
				if err != nil {
					return err
				}
				r.Lines = append(r.Lines, boxplotRow(fmt.Sprintf("%s attrs=%d", est.Name(), k), box))
			}
		}
		return nil
	}

	conjTrain, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	if err := run("Conjunctive", conjTrain, conjTest, "conjunctive", true); err != nil {
		return nil, err
	}
	mixTrain, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	if err := run("Mixed", mixTrain, mixTest, "complex", false); err != nil {
		return nil, err
	}
	return r, nil
}

// Figure5 regenerates Figure 5 (query drift, Section 5.5.1): models train
// on queries mentioning at most two distinct attributes and are tested on
// queries mentioning at least three. Rows with <= 2 attributes show the
// training regime for reference, exactly as in the paper.
func Figure5(env *Env) (*Report, error) {
	r := &Report{ID: "fig5", Title: "Query drift: train <= 2 attributes, test >= 3"}
	conjAll, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixAll, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	conjTrain, _ := conjAll.SplitByAttrs(2)
	mixTrain, _ := mixAll.SplitByAttrs(2)
	r.Printf("training mean cardinality: conj=%.0f mixed=%.0f", conjTrain.MeanCard(), mixTrain.MeanCard())
	conjHiTrain, conjHi := conjTest.SplitByAttrs(2)
	mixHiTrain, mixHi := mixTest.SplitByAttrs(2)
	r.Printf("test mean cardinality:     conj=%.0f mixed=%.0f", conjHi.MeanCard(), mixHi.MeanCard())

	opts := env.coreOptions()
	for _, model := range []string{"GB", "NN"} {
		for _, name := range qft.Names() {
			train, testLo, testHi := conjTrain, conjHiTrain, conjHi
			if name == "complex" {
				train, testLo, testHi = mixTrain, mixHiTrain, mixHi
			}
			loc, err := env.trainLocal(name, model, opts, train)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s+%s: %w", model, name, err)
			}
			// Reference rows: the training regime (1-2 attributes).
			if len(testLo) >= 5 {
				box, err := evalBox(loc, testLo)
				if err != nil {
					return nil, err
				}
				r.Lines = append(r.Lines, boxplotRow(fmt.Sprintf("%s+%s attrs<=2 (train regime)", model, name), box))
			}
			grouped := testHi.GroupByAttrs()
			for _, k := range sortedKeys(grouped) {
				sub := grouped[k]
				if len(sub) < 5 {
					continue
				}
				box, err := evalBox(loc, sub)
				if err != nil {
					return nil, err
				}
				r.Lines = append(r.Lines, boxplotRow(fmt.Sprintf("%s+%s attrs=%d (drift)", model, name, k), box))
			}
		}
	}
	return r, nil
}
