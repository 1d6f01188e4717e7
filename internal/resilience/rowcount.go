package resilience

import (
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// RowCount is the terminal stage of the degradation chain: a System-R-style
// back-of-envelope estimate from table row counts alone. It is total — no
// statistics, no model, no error path — so it can always answer, however
// badly. Selectivities are the textbook magic constants: equality 0.005,
// inequality/range 1/3, and each equi-join divides by the larger side
// (the key/foreign-key assumption). A table the catalog does not know counts
// defaultRows.
type RowCount struct {
	DB *table.DB
}

const defaultRows = 1000

// Name implements Estimator.
func (rc RowCount) Name() string { return "row-count heuristic" }

// Estimate implements Estimator. It never returns an error.
func (rc RowCount) Estimate(q *sqlparse.Query) (float64, error) {
	rows := func(name string) float64 {
		if rc.DB != nil {
			if t := rc.DB.Table(name); t != nil && t.NumRows() > 0 {
				return float64(t.NumRows())
			}
		}
		return defaultRows
	}
	est := 1.0
	if q != nil {
		for _, tn := range q.Tables {
			est *= rows(tn)
		}
		for _, p := range sqlparse.CollectPreds(q.Where) {
			if p.Op == sqlparse.OpEq {
				est *= 0.005
			} else {
				est *= 1.0 / 3
			}
		}
		for _, j := range q.Joins {
			big := rows(j.LeftTable)
			if r := rows(j.RightTable); r > big {
				big = r
			}
			est /= big
		}
	}
	if est < 1 || !validEstimate(est) {
		est = 1
	}
	return est, nil
}

// Constant is an estimator that always answers Value — the degenerate last
// resort when not even a catalog is available, and a convenient test stub.
type Constant struct {
	Value float64
}

// Name implements Estimator.
func (c Constant) Name() string { return "constant" }

// Estimate implements Estimator.
func (c Constant) Estimate(*sqlparse.Query) (float64, error) {
	v := c.Value
	if v < 1 || !validEstimate(v) {
		v = 1
	}
	return v, nil
}
