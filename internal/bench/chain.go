package bench

import (
	"fmt"
	"math"
	"time"

	"qfe/internal/cli"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/resilience"
	"qfe/internal/workload"
)

// ExtensionServingChain scores each stage of the serving degradation chain
// alone, the way the comprehensive benchmark of learned cardinality
// estimators scores the traditional baselines next to the learned ones: the
// learned model, Bernoulli sampling at the paper's 0.1 %, independence and the
// row-count heuristic, each asked every query of an input on its own, twice.
// Per stage: median, p95 and max q-error over the queries it answers, the
// microseconds a call costs, the share of queries it refuses (returns an error
// for), and the share whose second call gives a different estimate. A last row
// per input is the chain cardestd serves (cli.Chain), which never refuses.
//
// The inputs: the forest mixed workload through GB + complex (the benchmark's
// shape and cardestd's default) and through NN + complex (the paper's other
// regressor, which lost its serving slot on this measurement; each learned
// model's training time and size are printed too); the same queries through
// GB + conjunctive (cardestd's earlier default -qft, which refuses every OR);
// the JOB-light-style suite through Table 1's GB + conjunctive local models
// (sampling refuses joins).
func ExtensionServingChain(env *Env) (*Report, error) {
	r := &Report{ID: "ext9", Title: "The serving degradation chain, stage by stage"}
	forest, err := env.ForestDB()
	if err != nil {
		return nil, err
	}
	conjTrain, _, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixTrain, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	imdb, _, err := env.IMDB()
	if err != nil {
		return nil, err
	}
	joinTrain, err := env.JoinTraining()
	if err != nil {
		return nil, err
	}
	jobLight, err := env.JOBLight()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	for _, in := range []struct {
		label       string
		qft, model  string
		join        bool
		train, test workload.Set
	}{
		{"forest mixed, GB + complex", "complex", "GB", false, mixTrain, mixTest},
		{"forest mixed, NN + complex", "complex", "NN", false, mixTrain, mixTest},
		{"forest mixed, GB + conjunctive", "conjunctive", "GB", false, conjTrain, mixTest},
		{"JOB-light, GB + conjunctive (local)", "conjunctive", "GB", true, joinTrain, jobLight},
	} {
		db, train := forest, env.trainLocal
		if in.join {
			db, train = imdb, env.trainJoinLocal
		}
		start := time.Now()
		learned, err := train(in.qft, in.model, opts, in.train)
		if err != nil {
			return nil, fmt.Errorf("ext9 %s: %w", in.label, err)
		}
		trainMS := float64(time.Since(start).Microseconds()) / 1000
		r.Printf("--- %s (%d queries) ---", in.label, len(in.test))
		r.Printf("learned model: train %.1f ms, %d bytes", trainMS, learned.MemoryBytes())
		for _, st := range []struct {
			name string
			est  estimator.Estimator
		}{
			{"learned", learned},
			{"sampling 0.1%", estimator.NewSampling(db, 0.001, 1)},
			{"independence", &estimator.Independence{DB: db}},
			{"row-count", resilience.RowCount{DB: db}},
			{"chain", cli.Chain(db, learned)},
		} {
			r.Lines = append(r.Lines, stageRow(st.name, scoreStage(st.est, in.test)))
		}
	}
	r.Printf("(q-errors over the queries a stage answers; refused: it returned an error; repeat differs: a second call's estimate is not bit-identical to the first)")
	return r, nil
}

// stageScore is one stage asked every query of a set, twice.
type stageScore struct {
	qerrs            []float64 // of the answered queries
	queries          int
	refused, differs int
	perCall          time.Duration // the first pass, refusals included
}

// scoreStage asks est every query of set and then every answered one again.
func scoreStage(est estimator.Estimator, set workload.Set) stageScore {
	s := stageScore{queries: len(set)}
	first := make([]float64, len(set))
	errs := make([]error, len(set))
	start := time.Now()
	for i, l := range set {
		first[i], errs[i] = est.Estimate(l.Query)
	}
	s.perCall = time.Since(start) / time.Duration(max(len(set), 1))
	for i, l := range set {
		if errs[i] != nil {
			s.refused++
			continue
		}
		s.qerrs = append(s.qerrs, metrics.QError(float64(l.Card), first[i]))
		if again, err := est.Estimate(l.Query); err != nil || math.Float64bits(again) != math.Float64bits(first[i]) {
			s.differs++
		}
	}
	return s
}

// stageRow renders a stageScore; a stage that answered nothing has no
// q-errors to show.
func stageRow(name string, s stageScore) string {
	errs := fmt.Sprintf("%-48s", "answers no query")
	if len(s.qerrs) > 0 {
		errs = fmt.Sprintf("median=%7.2f  p95=%9.2f  max=%10.2f",
			metrics.Quantile(s.qerrs, 0.5), metrics.Quantile(s.qerrs, 0.95), metrics.Quantile(s.qerrs, 1))
	}
	share := func(n int) float64 { return 100 * float64(n) / float64(max(s.queries, 1)) }
	return fmt.Sprintf("%-14s %s  us/call=%8.2f  refused=%5.1f%%  repeat-differs=%5.1f%%",
		name, errs, float64(s.perCall.Nanoseconds())/1000, share(s.refused), share(s.differs))
}
