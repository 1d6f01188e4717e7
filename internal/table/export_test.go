package table

import "fmt"

// HistogramShapeColumns are TestHistogram's shapes as columns, for the
// external tests.
func HistogramShapeColumns() []*Column {
	var cols []*Column
	for _, sh := range histogramShapes() {
		cols = append(cols, NewColumn(sh.name, sh.vals))
	}
	return cols
}

// oracleStats is the ANALYZE a column ran lazily, on first read, before
// construction read its record off the value dictionary: min, max and a map
// of the values seen in one pass over the rows, the histogram in a second.
func oracleStats(vals []int64) stats {
	if len(vals) == 0 {
		panic("table: oracle of an empty column")
	}
	mn, mx := vals[0], vals[0]
	seen := make(map[int64]struct{}, 64)
	for _, v := range vals {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		seen[v] = struct{}{}
	}
	span := uint64(mx - mn) // max-min, exact where the int64 difference is not
	b := min(span, histogramBuckets-1) + 1
	hist := make([]int64, b)
	for _, v := range vals {
		hist[bucketOf(uint64(v-mn), span, b)]++
	}
	return stats{min: mn, max: mx, rows: len(vals), distinct: len(seen), hist: hist}
}

// StatsMismatch holds c's record to oracleStats over its rows, field by field
// and bucket by bucket, and describes the first disagreement; "" when there
// is none.
func StatsMismatch(c *Column) string {
	got, want := c.stats, oracleStats(c.Vals)
	switch {
	case got.min != want.min:
		return fmt.Sprintf("min %d, oracle %d", got.min, want.min)
	case got.max != want.max:
		return fmt.Sprintf("max %d, oracle %d", got.max, want.max)
	case got.rows != want.rows:
		return fmt.Sprintf("rows %d, oracle %d", got.rows, want.rows)
	case got.distinct != want.distinct:
		return fmt.Sprintf("distinct %d, oracle %d", got.distinct, want.distinct)
	case len(got.hist) != len(want.hist):
		return fmt.Sprintf("%d buckets, oracle %d", len(got.hist), len(want.hist))
	}
	for i := range got.hist {
		if got.hist[i] != want.hist[i] {
			return fmt.Sprintf("bucket %d holds %d rows, oracle %d", i, got.hist[i], want.hist[i])
		}
	}
	return ""
}
