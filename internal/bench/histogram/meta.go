package histogram

import (
	"fmt"

	"qfe/internal/core"
	"qfe/internal/table"
)

// Partitioner picks the inclusive upper boundaries (all but the last) of at
// most n partitions of one column's values: EquiDepth, or a closure over
// EquiWidth or VOptimal. Returning fewer than n-1 boundaries simply yields
// fewer partitions.
type Partitioner func(vals []int64, n int) ([]int64, error)

// PartitionedMeta derives featurization metadata whose partitions come from
// part instead of Algorithm 1's uniform split (the Section 3.2 histogram
// extension). A column whose domain holds at most n values keeps the exact
// one-value-per-entry partitioning whatever the partitioner. The partitions
// reach the featurizers through core.NewTableMetaFromSpec, which refuses
// boundaries that are not ascending in the column's domain.
func PartitionedMeta(t *table.Table, n int, part Partitioner) (*core.TableMeta, error) {
	n = max(n, 1)
	spec := core.MetaSpec{Name: t.Name}
	for _, col := range t.Columns() {
		a := core.AttrMeta{Name: col.Name, Min: col.Min(), Max: col.Max()}
		if d := a.DomainSize(); d <= int64(n) {
			a.NEntries = int(d)
		} else {
			bounds, err := part(col.Vals, n)
			if err != nil {
				return nil, fmt.Errorf("histogram: partition column %q: %w", col.Name, err)
			}
			a.Boundaries, a.NEntries = bounds, len(bounds)+1
		}
		spec.Attrs = append(spec.Attrs, a)
	}
	meta, err := core.NewTableMetaFromSpec(spec)
	if err != nil {
		return nil, err
	}
	meta.MapColumns(t)
	return meta, nil
}
