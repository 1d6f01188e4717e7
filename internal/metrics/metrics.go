// Package metrics implements the error metrics and summary statistics used
// throughout the paper's evaluation (Section 5).
//
// The central metric is the q-error (Moerkotte et al. [19]),
//
//	qerr(x, e) = max(x/e, e/x),
//
// a relative, symmetric measure of the deviation between a true cardinality x
// and its estimate e. The paper reports q-error distributions as boxplots
// (1%, 25%, 50%, 75%, 99% quantiles) and as mean/median/99%/max tables; this
// package provides both summaries.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// QError returns the q-error max(truth/estimate, estimate/truth).
//
// Following the paper's convention, both inputs are clamped to be >= 1 before
// the ratio is taken: the evaluation considers only queries with non-empty
// results and forces all estimates to be at least one, so the q-error is
// always defined and >= 1. The clamp also absorbs degenerate inputs an
// unhealthy estimator can emit — NaN, zero, and negative values all clamp to
// 1 — so aggregates over a workload never poison on a single bad estimate. A
// +Inf input stays +Inf, yielding an infinite q-error: an unboundedly wrong
// estimate should dominate a summary, not vanish from it.
func QError(truth, estimate float64) float64 {
	// !(x >= 1) instead of x < 1: the negated form is true for NaN too.
	if !(truth >= 1) {
		truth = 1
	}
	if !(estimate >= 1) {
		estimate = 1
	}
	// Inf/Inf is NaN; with both inputs infinite there is no information
	// about the deviation, so report the worst case rather than poison.
	if math.IsInf(truth, 1) && math.IsInf(estimate, 1) {
		return math.Inf(1)
	}
	if truth > estimate {
		return truth / estimate
	}
	return estimate / truth
}

// Summary holds the aggregate statistics the paper reports in its tables:
// mean, median, the 99% quantile, and the maximum.
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary over vals. An empty input yields a zero
// Summary with Count == 0.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Count:  len(sorted),
		Mean:   sum / float64(len(sorted)),
		Median: quantileSorted(sorted, 0.50),
		P99:    quantileSorted(sorted, 0.99),
		Max:    sorted[len(sorted)-1],
	}
}

// String renders the summary in the "mean median 99% max" column order used
// by Tables 1, 2, 3, and 5 of the paper.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.2f median=%.2f p99=%.2f max=%.2f (n=%d)",
		s.Mean, s.Median, s.P99, s.Max, s.Count)
}

// BoxplotStats holds the five statistics drawn in the paper's boxplot
// figures: the whiskers at the 1% and 99% quantiles, the box at the 25% and
// 75% quantiles, and the median band.
type BoxplotStats struct {
	P01    float64
	P25    float64
	Median float64
	P75    float64
	P99    float64
}

// Boxplot computes BoxplotStats over vals. An empty input yields zeros.
func Boxplot(vals []float64) BoxplotStats {
	if len(vals) == 0 {
		return BoxplotStats{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return BoxplotStats{
		P01:    quantileSorted(sorted, 0.01),
		P25:    quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.50),
		P75:    quantileSorted(sorted, 0.75),
		P99:    quantileSorted(sorted, 0.99),
	}
}

// String renders the boxplot stats on one line, whiskers outermost.
func (b BoxplotStats) String() string {
	return fmt.Sprintf("p01=%.2f p25=%.2f median=%.2f p75=%.2f p99=%.2f",
		b.P01, b.P25, b.Median, b.P75, b.P99)
}

// Quantile returns the q-quantile (0 <= q <= 1) of vals using linear
// interpolation between closest ranks, matching numpy's default method so
// results line up with the paper's Python evaluation pipeline.
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
