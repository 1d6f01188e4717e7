package table_test

import (
	"fmt"
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/table"
)

// TestStatsMatchOracle: the record a column reads off its value dictionary
// at construction is, in every field and every histogram bucket, the one the
// map-based pass over its rows gathered (oracleStats): on the daemon's 16
// forest columns at three seeds, every IMDb column at the harness's default
// scale, a string column, a one-value column and TestHistogram's shapes.
func TestStatsMatchOracle(t *testing.T) {
	check := func(where string, cols []*table.Column) {
		t.Helper()
		for _, c := range cols {
			if msg := table.StatsMismatch(c); msg != "" {
				t.Errorf("%s %s: %s", where, c.Name, msg)
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		forest, err := dataset.Forest(dataset.ForestConfig{Rows: 20_000, QuantAttrs: 12, BinaryAttrs: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("forest seed %d", seed), forest.Columns())
	}
	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 5_000, Seed: 20190112})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range imdb.TableNames() {
		check(name, imdb.Table(name).Columns())
	}
	check("shapes", append(table.HistogramShapeColumns(),
		table.NewStringColumn("string", []string{"pear", "apple", "fig", "apple", "pear", "pear"}),
		table.NewColumn("one value", []int64{42})))
}
