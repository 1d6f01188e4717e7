package histogram

import (
	"math/rand"
	"sort"
	"testing"

	"qfe/internal/core"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

func TestPartitionedSmallDomainStaysExact(t *testing.T) {
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("bin", []int64{0, 1, 0, 1, 1}))
	meta, err := PartitionedMeta(tbl, 16, EquiDepth)
	if err != nil {
		t.Fatal(err)
	}
	a := meta.Attrs[0]
	if !a.Exact() || a.NEntries != 2 || a.Boundaries != nil {
		t.Errorf("small domain should keep the exact uniform partitioning: %+v", a)
	}
}

// TestEquiDepthTightensBoundsOnSkew: on skewed data, equi-depth partitions
// concentrate resolution where the rows are, so the decoded count bounds
// are tighter (in expectation over anchored range queries) than uniform
// partitions at equal entry budget. The bounds of a one-attribute vector
// differ by the rows of the partitions it enters ½.
func TestEquiDepthTightensBoundsOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 4000)
	for i := range vals {
		vals[i] = min(int64(rng.ExpFloat64()*150), 1999)
	}
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("a", vals))
	n := 12
	uniform := core.NewTableMeta(tbl, n)
	depth, err := PartitionedMeta(tbl, n, EquiDepth)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxEntriesPerAttr: n, AttrSel: false}
	// Literals anchored at data values, like the paper's workloads: the
	// advantage of data-driven partitions materializes when queries touch
	// the data where it actually lives. Col: 1 is exec.Bind's stamp for
	// the table's one column.
	anchoredRange := func(qrng *rand.Rand) sqlparse.Expr {
		v := vals[qrng.Intn(len(vals))]
		w := int64(qrng.ExpFloat64() * 60)
		return sqlparse.NewAnd(
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: v - w, Col: 1},
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: v + w, Col: 1},
		)
	}
	width := func(meta *core.TableMeta) int64 {
		f := core.NewConjunctive(meta, opts)
		a := meta.Attrs[0]
		var total int64
		qrng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 200; trial++ {
			vec, err := f.Featurize(anchoredRange(qrng))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				k := sort.Search(a.NEntries, func(k int) bool { _, hi := a.BucketRange(k); return hi >= v })
				if vec[k] == 0.5 {
					total++
				}
			}
		}
		return total
	}
	wu, wd := width(uniform), width(depth)
	t.Logf("total decoded bound width: uniform=%d equi-depth=%d", wu, wd)
	if wd >= wu {
		t.Errorf("equi-depth bound width %d should beat uniform %d on skewed data", wd, wu)
	}
}
