package bench

import (
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Oracle returns the true result cardinality by executing the query — the
// "True cardinalities" column of Table 4.
type Oracle struct {
	DB *table.DB
}

// Name implements estimator.Estimator.
func (o *Oracle) Name() string { return "True cardinalities" }

// Estimate implements estimator.Estimator by exact execution.
func (o *Oracle) Estimate(q *sqlparse.Query) (float64, error) {
	c, err := exec.Count(o.DB, q)
	if err != nil {
		return 0, err
	}
	return float64(max(c, 1)), nil
}
