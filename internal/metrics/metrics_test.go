package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQErrorBasics(t *testing.T) {
	tests := []struct {
		name            string
		truth, estimate float64
		want            float64
	}{
		{"exact", 100, 100, 1},
		{"overestimate 2x", 100, 200, 2},
		{"underestimate 2x", 100, 50, 2},
		{"truth clamped to 1", 0, 10, 10},
		{"estimate clamped to 1", 10, 0, 10},
		{"both clamped", 0, 0, 1},
		{"large ratio", 1, 1e6, 1e6},
		{"negative truth clamped", -50, 10, 10},
		{"negative estimate clamped", 10, -50, 10},
		{"nan truth clamped", math.NaN(), 10, 10},
		{"nan estimate clamped", 10, math.NaN(), 10},
		{"both nan clamped", math.NaN(), math.NaN(), 1},
		{"inf estimate dominates", 10, math.Inf(1), math.Inf(1)},
		{"negative inf clamped", 10, math.Inf(-1), 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := QError(tt.truth, tt.estimate); got != tt.want {
				t.Errorf("QError(%v, %v) = %v, want %v", tt.truth, tt.estimate, got, tt.want)
			}
		})
	}
}

func TestQErrorSymmetric(t *testing.T) {
	// q-error is symmetric in truth and estimate: the paper chose it over
	// relative error precisely for this property.
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		return QError(a, b) == QError(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQErrorAtLeastOne(t *testing.T) {
	f := func(a, b float64) bool {
		return QError(math.Abs(a), math.Abs(b)) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if s.Mean != 22 {
		t.Errorf("Mean = %v, want 22", s.Mean)
	}
	if s.Median != 3 {
		t.Errorf("Median = %v, want 3", s.Median)
	}
	if s.Max != 100 {
		t.Errorf("Max = %v, want 100", s.Max)
	}
	if s.P99 <= 4 || s.P99 > 100 {
		t.Errorf("P99 = %v, want in (4, 100]", s.P99)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Summarize mutated its input: %v", in)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	vals := []float64{0, 10, 20, 30, 40}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 0},
		{0.25, 10},
		{0.5, 20},
		{0.75, 30},
		{1, 40},
		{0.125, 5}, // interpolates between 0 and 10
	}
	for _, tt := range tests {
		if got := Quantile(vals, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileSingleValue(t *testing.T) {
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Quantile of singleton = %v, want 7", got)
	}
}

func TestBoxplotOrdering(t *testing.T) {
	// Boxplot statistics must be monotone: p01 <= p25 <= median <= p75 <= p99.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = math.Abs(v)
		}
		b := Boxplot(vals)
		return b.P01 <= b.P25 && b.P25 <= b.Median && b.Median <= b.P75 && b.P75 <= b.P99
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxplotKnown(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i)
	}
	b := Boxplot(vals)
	if b.Median != 50 {
		t.Errorf("Median = %v, want 50", b.Median)
	}
	if b.P25 != 25 || b.P75 != 75 {
		t.Errorf("quartiles = %v, %v, want 25, 75", b.P25, b.P75)
	}
	if b.P01 != 1 || b.P99 != 99 {
		t.Errorf("whiskers = %v, %v, want 1, 99", b.P01, b.P99)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2})
	if got := s.String(); got == "" {
		t.Error("Summary.String() is empty")
	}
	b := Boxplot([]float64{1, 2})
	if got := b.String(); got == "" {
		t.Error("BoxplotStats.String() is empty")
	}
}

func TestQErrorNeverNaN(t *testing.T) {
	// Whatever garbage an unhealthy estimator emits, the q-error must stay a
	// usable number (>= 1, possibly +Inf) so workload summaries never poison.
	f := func(a, b float64) bool {
		q := QError(a, b)
		return !math.IsNaN(q) && q >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 10} {
			q := QError(v, w)
			if math.IsNaN(q) || q < 1 {
				t.Errorf("QError(%v, %v) = %v", v, w, q)
			}
		}
	}
}
