package bench

import (
	"fmt"
	"time"

	"qfe/internal/bench/engine"
	"qfe/internal/bench/mscn"
	"qfe/internal/bench/qft"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Table1 regenerates Table 1: the JOB-light-style suite under local models,
// NN and GB × {simple, range, conjunctive}. "complex" is omitted exactly as
// in the paper: JOB-light contains no disjunctions, so its vectors equal
// Universal Conjunction Encoding's.
func Table1(env *Env) (*Report, error) {
	r := &Report{ID: "tab1", Title: "JOB-light join queries, local models"}
	train, err := env.JoinTraining()
	if err != nil {
		return nil, err
	}
	test, err := env.JOBLight()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	for _, model := range []string{"NN", "GB"} {
		for _, qft := range []string{"simple", "range", "conjunctive"} {
			loc, err := env.trainJoinLocal(qft, model, opts, train)
			if err != nil {
				return nil, fmt.Errorf("tab1 %s+%s: %w", model, qft, err)
			}
			sum, err := estimator.Summarize(loc, test)
			if err != nil {
				return nil, err
			}
			r.Lines = append(r.Lines, summaryRow(model+" + "+qft, sum))
		}
	}
	return r, nil
}

// Table2 regenerates Table 2: local vs global models on the JOB-light
// suite — the unmodified MSCN, MSCN with the conjunctive QFT (Section 4.2),
// and the local NN + conjunctive for contrast.
func Table2(env *Env) (*Report, error) {
	r := &Report{ID: "tab2", Title: "JOB-light: local vs global models"}
	db, schema, err := env.IMDB()
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
	opts := env.coreOptions()

	for _, mode := range []mscn.Mode{mscn.Original, mscn.PerAttribute} {
		est, err := mscn.New(db, schema, mode, opts, env.mscnConfig())
		if err != nil {
			return nil, err
		}
		if err := est.Train(train); err != nil {
			return nil, fmt.Errorf("tab2 %s: %w", est.Name(), err)
		}
		sum, err := estimator.Summarize(est, test)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, summaryRow(est.Name(), sum))
	}

	loc, err := env.trainJoinLocal("conjunctive", "NN", opts, train)
	if err != nil {
		return nil, err
	}
	sum, err := estimator.Summarize(loc, test)
	if err != nil {
		return nil, err
	}
	r.Lines = append(r.Lines, summaryRow("NN + conj (local)", sum))
	return r, nil
}

// Table3 regenerates Table 3: the effect of appending per-attribute
// selectivity estimates (the gray lines of Algorithm 1) for GB/NN ×
// conjunctive/complex, with and without attrSel.
func Table3(env *Env) (*Report, error) {
	r := &Report{ID: "tab3", Title: "Effect of per-attribute selectivity estimates"}
	conjTrain, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixTrain, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	for _, model := range []string{"GB", "NN"} {
		for _, qft := range []string{"conjunctive", "complex"} {
			train, test := conjTrain, conjTest
			if qft == "complex" {
				train, test = mixTrain, mixTest
			}
			for _, attrSel := range []bool{true, false} {
				opts := env.coreOptions()
				opts.AttrSel = attrSel
				loc, err := env.trainLocal(qft, model, opts, train)
				if err != nil {
					return nil, fmt.Errorf("tab3 %s+%s attrSel=%v: %w", model, qft, attrSel, err)
				}
				sum, err := estimator.Summarize(loc, test)
				if err != nil {
					return nil, err
				}
				label := fmt.Sprintf("%s+%s ", model, shortQFT(qft))
				if attrSel {
					label += "w/ attrSel"
				} else {
					label += "w/o attrSel"
				}
				r.Lines = append(r.Lines, summaryRow(label, sum))
			}
		}
	}
	return r, nil
}

func shortQFT(qft string) string {
	switch qft {
	case "conjunctive":
		return "conj"
	case "complex":
		return "comp"
	}
	return qft
}

// Table4 regenerates Table 4: end-to-end run times of the JOB-light suite
// under three cardinality sources driving the join-order optimizer —
// the Postgres-style independence estimates, our learned estimator
// (GB + conjunctive as a global model), and true cardinalities.
func Table4(env *Env) (*Report, error) {
	r := &Report{ID: "tab4", Title: "End-to-end run times (optimizer + executor)"}
	db, schema, err := env.IMDB()
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
	queries := test.Queries()

	ours, err := newGlobal(db, schema, "conjunctive", env.coreOptions(), estimator.NewGBFactory(env.gbConfig()))
	if err != nil {
		return nil, err
	}
	if err := ours.Train(train); err != nil {
		return nil, err
	}
	ests := []estimator.Estimator{
		&estimator.Independence{DB: db},
		ours,
		&Oracle{DB: db},
	}
	for _, est := range ests {
		total, stats, err := runWorkloadFor(db, est, queries)
		if err != nil {
			return nil, fmt.Errorf("tab4 %s: %w", est.Name(), err)
		}
		var probes int64
		for _, st := range stats {
			probes += st.ProbeTuples
		}
		// Verify the executor's counts against the labels: all three plans
		// must agree on results, only timing differs.
		for i, st := range stats {
			if st.Count != test[i].Card {
				return nil, fmt.Errorf("tab4 %s: query %d count %d != true %d", est.Name(), i, st.Count, test[i].Card)
			}
		}
		r.Printf("%-28s total=%v  probe-tuples=%d", est.Name(), total.Round(time.Microsecond), probes)
	}
	r.Printf("(plan quality surfaces as probe-tuples; run times stay close — the paper's 1.7%% effect)")
	return r, nil
}

// Table5 regenerates Table 5: accuracy of GB + Universal Conjunction
// Encoding on the JOB-light suite for different per-attribute feature
// vector lengths, alongside the feature-vector memory footprint.
func Table5(env *Env) (*Report, error) {
	r := &Report{ID: "tab5", Title: "Accuracy for different feature vector lengths"}
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
	for _, n := range env.Scale.VectorLengths {
		opts := core.Options{MaxEntriesPerAttr: n, AttrSel: true}
		loc, err := env.trainJoinLocal("conjunctive", "GB", opts, train)
		if err != nil {
			return nil, fmt.Errorf("tab5 n=%d: %w", n, err)
		}
		sum, err := estimator.Summarize(loc, test)
		if err != nil {
			return nil, err
		}
		bytes := fullJoinVectorBytes(db, n)
		r.Lines = append(r.Lines, summaryRow(fmt.Sprintf("n=%-4d (%5d B/vec)", n, bytes), sum))
	}
	return r, nil
}

// fullJoinVectorBytes computes the feature-vector size (8 bytes per entry)
// of the widest sub-schema — the full join of all tables — at n entries per
// attribute plus one attrSel entry each, mirroring Table 5's "bytes feat.
// vec." column.
func fullJoinVectorBytes(db *table.DB, n int) int {
	entries := 0
	for _, tn := range db.TableNames() {
		meta := core.NewTableMeta(db.Table(tn), n)
		for _, a := range meta.Attrs {
			entries += a.NEntries + 1
		}
	}
	return entries * 8
}

// runWorkloadFor plans and executes the queries under est's estimates.
func runWorkloadFor(db *table.DB, est estimator.Estimator, queries []*sqlparse.Query) (time.Duration, []engine.ExecStats, error) {
	opt := &engine.Optimizer{Est: est}
	return engine.RunWorkload(db, opt, queries)
}

// Table6 regenerates Table 6: average estimation error as a function of the
// number of training queries, for GB and NN × all four QFTs.
func Table6(env *Env) (*Report, error) {
	r := &Report{ID: "tab6", Title: "Training convergence (avg q-error vs #training queries)"}
	conjTrain, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixTrain, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	for _, model := range []string{"GB", "NN"} {
		r.Printf("--- %s ---", model)
		for _, size := range env.Scale.ConvergenceSizes {
			line := fmt.Sprintf("%6d queries:", size)
			for _, qft := range []string{"conjunctive", "complex", "range", "simple"} {
				train, test := conjTrain, conjTest
				if qft == "complex" {
					train, test = mixTrain, mixTest
				}
				if size > len(train) {
					size = len(train)
				}
				loc, err := env.trainLocal(qft, model, opts, train[:size])
				if err != nil {
					return nil, fmt.Errorf("tab6 %s+%s@%d: %w", model, qft, size, err)
				}
				sum, err := estimator.Summarize(loc, test)
				if err != nil {
					return nil, err
				}
				line += fmt.Sprintf("  %s=%8.2f", shortQFT(qft), sum.Mean)
			}
			r.Lines = append(r.Lines, line)
		}
	}
	return r, nil
}

// Table7 regenerates Table 7 (featurization time per query) plus the
// Section 5.7 memory accounting of the estimators.
func Table7(env *Env) (*Report, error) {
	r := &Report{ID: "tab7", Title: "QFT time & estimator memory consumption"}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	conjTrain, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	_, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	meta := core.NewTableMeta(forest, opts.MaxEntriesPerAttr)

	for _, name := range qft.Names() {
		f, err := qft.New(name, meta, opts)
		if err != nil {
			return nil, err
		}
		test := conjTest
		if name == "complex" {
			test = mixTest
		}
		exprs := make([]sqlparse.Expr, len(test))
		for i, l := range test {
			exprs[i] = l.Query.Where
		}
		start := time.Now()
		reps := 0
		for time.Since(start) < 50*time.Millisecond {
			for _, e := range exprs {
				if _, err := f.Featurize(e); err != nil {
					return nil, err
				}
			}
			reps++
		}
		perQuery := time.Since(start) / time.Duration(reps*len(exprs))
		r.Printf("%-14s %8.1f µs per query", name, float64(perQuery.Nanoseconds())/1e3)
	}

	// Memory accounting (Section 5.7).
	r.Printf("--- estimator memory ---")
	gbLoc, err := env.trainLocal("conjunctive", "GB", opts, conjTrain)
	if err != nil {
		return nil, err
	}
	r.Printf("%-28s %8.1f kB", "GB (local, conjunctive)", float64(gbLoc.MemoryBytes())/1024)
	nnLoc, err := env.trainLocal("conjunctive", "NN", opts, conjTrain)
	if err != nil {
		return nil, err
	}
	r.Printf("%-28s %8.1f kB", "NN (local, conjunctive)", float64(nnLoc.MemoryBytes())/1024)
	db, err := env.ForestDB()
	if err != nil {
		return nil, err
	}
	schema, err := env.ForestSchema()
	if err != nil {
		return nil, err
	}
	m, err := mscn.New(db, schema, mscn.PerAttribute, opts, env.mscnConfig())
	if err != nil {
		return nil, err
	}
	if err := m.Train(conjTrain[:min(len(conjTrain), 500)]); err != nil {
		return nil, err
	}
	r.Printf("%-28s %8.1f kB", "MSCN (global)", float64(m.MemoryBytes())/1024)
	sampleRows := int(float64(forest.NumRows()) * 0.001)
	r.Printf("%-28s %8.1f kB (0.1%% sample, %d rows x %d cols x 8B)",
		"Sampling", float64(sampleRows*forest.NumCols()*8)/1024, sampleRows, forest.NumCols())
	r.Printf("%-28s %8.1f kB (per-column histograms)", "Postgres", float64(forest.NumCols()*100*8)/1024)
	return r, nil
}
