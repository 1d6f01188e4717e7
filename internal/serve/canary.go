package serve

import (
	"context"
	"fmt"
	"math"
	"time"

	"qfe/internal/estimator"
	"qfe/internal/metrics"
	"qfe/internal/workload"
)

// The canary gate is the validation step every model must clear before it
// serves traffic: the candidate estimates a held-out labeled
// workload and its median and p95 q-errors are checked against absolute
// ceilings and — when it would replace an incumbent — against the
// incumbent's own numbers times a slack factor. This mirrors how learned
// estimators are vetted in practice: a model that trained on a skewed label
// batch looks fine structurally and only reveals itself against held-out
// truth.

// CanaryConfig parameterizes the gate.
type CanaryConfig struct {
	// Workload is the held-out labeled query set the candidate must
	// estimate. An empty workload disables the gate (every run passes and
	// says so in Reason).
	Workload workload.Set
	// MaxMedian is the absolute ceiling on the median q-error. 0 means the
	// default 10.
	MaxMedian float64
	// MaxP95 is the absolute ceiling on the p95 q-error. 0 means the
	// default 100.
	MaxP95 float64
}

// canarySlack is how much worse than the incumbent (multiplicatively, on both
// median and p95) a candidate may be and still pass.
const canarySlack = 2

// canaryTimeout bounds one whole canary run.
const canaryTimeout = 10 * time.Second

func (c CanaryConfig) withDefaults() CanaryConfig {
	if c.MaxMedian <= 0 {
		c.MaxMedian = 10
	}
	if c.MaxP95 <= 0 {
		c.MaxP95 = 100
	}
	return c
}

// CanaryResult is one canary run's verdict, rendered into /v1/models.
type CanaryResult struct {
	Median  float64 `json:"median"`
	P95     float64 `json:"p95"`
	Queries int     `json:"queries"`
	Failed  int     `json:"failed"` // estimation errors (scored as +Inf q-error)
	Pass    bool    `json:"pass"`
	Reason  string  `json:"reason,omitempty"`
	// ProbedUnix is when the run that admitted the model started (unix
	// seconds).
	ProbedUnix int64 `json:"probedUnix"`
}

// RunCanary estimates cfg.Workload with est and scores it. incumbent, when
// non-nil, is the canary result of the model the candidate would replace;
// the candidate then additionally must stay within canarySlack of it. A
// context cancellation mid-run fails the canary (a model too slow for its
// canary budget is not fit to serve).
func RunCanary(ctx context.Context, est estimator.Estimator, cfg CanaryConfig, incumbent *CanaryResult) CanaryResult {
	cfg = cfg.withDefaults()
	res := CanaryResult{Queries: len(cfg.Workload), ProbedUnix: time.Now().Unix()}
	if len(cfg.Workload) == 0 {
		res.Pass = true
		res.Reason = "no canary workload configured"
		return res
	}
	ctx, cancel := context.WithTimeout(ctx, canaryTimeout)
	defer cancel()

	qerrs := make([]float64, 0, len(cfg.Workload))
	for _, l := range cfg.Workload {
		if ctx.Err() != nil {
			res.Pass = false
			res.Reason = fmt.Sprintf("canary aborted after %d/%d queries: %v", len(qerrs), len(cfg.Workload), ctx.Err())
			res.Median, res.P95 = math.Inf(1), math.Inf(1)
			return res
		}
		v, err := est.Estimate(l.Query)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			res.Failed++
			qerrs = append(qerrs, math.Inf(1))
			continue
		}
		qerrs = append(qerrs, metrics.QError(float64(l.Card), v))
	}
	res.Median = metrics.Quantile(qerrs, 0.50)
	res.P95 = metrics.Quantile(qerrs, 0.95)

	switch {
	case res.Median > cfg.MaxMedian:
		res.Reason = fmt.Sprintf("median q-error %.3g exceeds ceiling %.3g", res.Median, cfg.MaxMedian)
	case res.P95 > cfg.MaxP95:
		res.Reason = fmt.Sprintf("p95 q-error %.3g exceeds ceiling %.3g", res.P95, cfg.MaxP95)
	case incumbent != nil && res.Median > incumbent.Median*canarySlack:
		res.Reason = fmt.Sprintf("median q-error %.3g regresses past incumbent %.3g × slack %d", res.Median, incumbent.Median, canarySlack)
	case incumbent != nil && res.P95 > incumbent.P95*canarySlack:
		res.Reason = fmt.Sprintf("p95 q-error %.3g regresses past incumbent %.3g × slack %d", res.P95, incumbent.P95, canarySlack)
	default:
		res.Pass = true
		res.Reason = fmt.Sprintf("median %.3g / p95 %.3g over %d queries", res.Median, res.P95, res.Queries)
	}
	return res
}
