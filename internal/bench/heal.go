package bench

import (
	"fmt"
	"math"
	"time"

	"qfe/internal/bench/qft"
	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/ml/gb"
	"qfe/internal/sqlparse"
	"qfe/internal/workload"
)

// The bar ext10 holds a heal to: the healed model must cut the median q-error
// on held-out drifted queries by at least healMinDriftCut while raising the
// in-distribution median by at most healMaxInDistCost. It was set before the
// experiment first ran and must not move to fit a result.
const (
	healMinDriftCut   = 0.25
	healMaxInDistCost = 0.05
)

// healCap bounds the feedback pairs a heal learns from, after deduplication:
// the size of cardestd's default -train set, so a refit costs at most a boot
// plus as much again.
const healCap = 2000

// ExtensionFeedbackHeal asks whether a model can learn the paper's query
// drift (Section 5.5.1, Figure 5) from feedback, the way a serving daemon
// would: from the true cardinalities of the queries it served. Figure 5's
// split boots GB on the training queries over at most two attributes; the
// rest of the training workload, all over three or more, is the drifted
// traffic, and the client reports the true cardinality of a fraction f of
// it. Two heals learn from those pairs, deduplicated by core.Fingerprint and
// capped at healCap:
//
//   - refit: a fresh model on the boot set (replayed whole, against
//     forgetting) together with the feedback pairs;
//   - residual: K trees fit to the live model's log2 residuals over the same
//     set, a second gb.Model whose output is added to the live model's in
//     log space at predict time. The live model is not touched.
//
// Each is scored against the stale boot model on the held-out test queries:
// the drifted ones (three or more attributes) and the in-distribution ones
// (at most two).
func ExtensionFeedbackHeal(env *Env) (*Report, error) {
	r := &Report{ID: "ext10", Title: "Query drift healed from feedback: refit vs residual trees"}
	r.Printf("bar: a heal must cut the drifted median by >= %.0f%% and raise the in-distribution median by <= %.0f%%",
		100*healMinDriftCut, 100*healMaxInDistCost)
	conjAll, conjTest, err := env.ConjWorkload()
	if err != nil {
		return nil, err
	}
	mixAll, mixTest, err := env.MixedWorkload()
	if err != nil {
		return nil, err
	}
	forest, err := env.Forest()
	if err != nil {
		return nil, err
	}
	opts := env.coreOptions()
	meta := core.NewTableMeta(forest, opts.MaxEntriesPerAttr)

	cleared := 0
	variants := 0
	for _, in := range []struct {
		qft       string
		all, test workload.Set
	}{
		{"complex", mixAll, mixTest},
		{"conjunctive", conjAll, conjTest},
	} {
		boot, traffic := in.all.SplitByAttrs(2)
		inDist, drifted := in.test.SplitByAttrs(2)
		live, err := env.trainLocal(in.qft, "GB", opts, boot)
		if err != nil {
			return nil, fmt.Errorf("ext10 GB+%s: %w", in.qft, err)
		}
		stale, err := scoreHeal(live, drifted, inDist)
		if err != nil {
			return nil, err
		}
		r.Printf("--- GB + %s: boot %d queries, drifted traffic %d, held out %d drifted + %d in-distribution ---",
			in.qft, len(boot), len(traffic), len(drifted), len(inDist))
		r.Printf("%-31s  drifted median=%6.2f           p95=%8.2f            in-dist median=%6.2f                      model=%6.1f kB",
			"stale (the boot model)", stale.driftMedian, stale.driftP95, stale.inMedian, float64(live.MemoryBytes())/1024)

		// row scores one healed model and appends its line.
		row := func(variant, label string, pairs int, est estimator.Estimator, secs float64, bytes int) error {
			s, err := scoreHeal(est, drifted, inDist)
			if err != nil {
				return err
			}
			variants++
			if s.clears(stale) {
				cleared++
			}
			r.Lines = append(r.Lines, healRow(variant, label, pairs, s, stale, secs, bytes))
			return nil
		}
		feat, err := qft.New(in.qft, meta, opts)
		if err != nil {
			return nil, err
		}
		for _, f := range []float64{0.01, 0.10, 0.50} {
			set := healSet(boot, traffic[:int(math.Ceil(f*float64(len(traffic))))])
			label, pairs := fmt.Sprintf("f=%g%%", 100*f), len(set)-len(boot)

			start := time.Now()
			refit, err := env.trainLocal(in.qft, "GB", opts, set)
			if err != nil {
				return nil, fmt.Errorf("ext10 refit GB+%s %s: %w", in.qft, label, err)
			}
			if err := row("refit", label, pairs, refit, time.Since(start).Seconds(), refit.MemoryBytes()); err != nil {
				return nil, err
			}
			for _, k := range []int{10, 30, 60} {
				cfg := env.gbConfig()
				cfg.NumTrees = k
				start := time.Now()
				res, err := fitResidual(live, feat, set, cfg)
				if err != nil {
					return nil, fmt.Errorf("ext10 residual GB+%s %s K=%d: %w", in.qft, label, k, err)
				}
				if err := row(fmt.Sprintf("residual K=%d", k), label, pairs, res, time.Since(start).Seconds(), res.trees.MemoryBytes()); err != nil {
					return nil, err
				}
			}
		}
	}
	r.Printf("(drifted/in-dist: median and p95 q-error, %% against stale; heal: seconds to build the healed model; model: the refit model, or the residual model alone)")
	r.Printf("variants clearing the bar: %d of %d", cleared, variants)
	return r, nil
}

// healSet is the training set of a heal: the boot set, then each feedback
// pair whose featurization class neither the boot set nor an earlier pair
// holds, at most healCap of them.
func healSet(boot, feedback workload.Set) workload.Set {
	seen := make(map[string]bool, len(boot)+len(feedback))
	for _, l := range boot {
		seen[core.Fingerprint(l.Query)] = true
	}
	set := append(workload.Set(nil), boot...)
	for _, l := range feedback {
		if len(set)-len(boot) == healCap {
			break
		}
		if fp := core.Fingerprint(l.Query); !seen[fp] {
			seen[fp] = true
			set = append(set, l)
		}
	}
	return set
}

// residualHeal is a live estimator plus trees fit to its log2 residuals.
type residualHeal struct {
	live  estimator.Estimator
	feat  core.Featurizer
	trees *gb.Model
}

// fitResidual fits cfg.NumTrees trees on feat's vectors of set to
// log2(card+1) - log2(live(q)+1), the live model's error in its own label
// space.
func fitResidual(live estimator.Estimator, feat core.Featurizer, set workload.Set, cfg gb.Config) (*residualHeal, error) {
	X := make([][]float64, len(set))
	y := make([]float64, len(set))
	for i, l := range set {
		est, err := live.Estimate(l.Query)
		if err != nil {
			return nil, err
		}
		if X[i], err = feat.Featurize(l.Query.Where); err != nil {
			return nil, err
		}
		y[i] = estimator.Log2Label(float64(l.Card)) - estimator.Log2Label(est)
	}
	trees, err := gb.Train(X, y, cfg)
	if err != nil {
		return nil, err
	}
	return &residualHeal{live: live, feat: feat, trees: trees}, nil
}

func (h *residualHeal) Name() string { return h.live.Name() + " + residual trees" }

// Estimate adds the residual trees' output to the live estimate in log2
// space, clamped as estimator.Local clamps its own.
func (h *residualHeal) Estimate(q *sqlparse.Query) (float64, error) {
	est, err := h.live.Estimate(q)
	if err != nil {
		return 0, err
	}
	x, err := h.feat.Featurize(q.Where)
	if err != nil {
		return 0, err
	}
	return estimator.FromLog2Label(estimator.Log2Label(est) + h.trees.Predict(x)), nil
}

// healScore is one model's q-error on the drifted and in-distribution
// held-out queries.
type healScore struct {
	driftMedian, driftP95, inMedian float64
}

func scoreHeal(est estimator.Estimator, drifted, inDist workload.Set) (healScore, error) {
	dq, err := estimator.Evaluate(est, drifted)
	if err != nil {
		return healScore{}, err
	}
	iq, err := estimator.Evaluate(est, inDist)
	if err != nil {
		return healScore{}, err
	}
	return healScore{metrics.Quantile(dq, 0.5), metrics.Quantile(dq, 0.95), metrics.Quantile(iq, 0.5)}, nil
}

// clears reports whether s, against the stale model's score, meets the bar.
func (s healScore) clears(stale healScore) bool {
	return s.driftMedian <= (1-healMinDriftCut)*stale.driftMedian &&
		s.inMedian <= (1+healMaxInDistCost)*stale.inMedian
}

func healRow(variant, f string, pairs int, s, stale healScore, secs float64, bytes int) string {
	pct := func(v, base float64) float64 { return 100 * (v/base - 1) }
	verdict := "misses bar"
	if s.clears(stale) {
		verdict = "CLEARS BAR"
	}
	return fmt.Sprintf("%-13s %-6s %4d pairs  drifted median=%6.2f (%+6.1f%%) p95=%8.2f (%+6.1f%%)  in-dist median=%6.2f (%+5.1f%%)  heal=%5.2fs  model=%6.1f kB  %s",
		variant, f, pairs, s.driftMedian, pct(s.driftMedian, stale.driftMedian), s.driftP95, pct(s.driftP95, stale.driftP95),
		s.inMedian, pct(s.inMedian, stale.inMedian), secs, float64(bytes)/1024, verdict)
}
