package core

import (
	"math/rand"
	"testing"

	"qfe/internal/bench/histogram"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// equiDepthPartitioner adapts histogram.EquiDepth to the core.Partitioner
// plug-in point.
func equiDepthPartitioner(col *table.Column, n int) ([]int64, error) {
	return histogram.EquiDepth(col.Vals, n)
}

func vOptimalPartitioner(col *table.Column, n int) ([]int64, error) {
	return histogram.VOptimal(col.Vals, n, 128)
}

// skewedTable builds a table whose value frequencies are heavily skewed, the
// case where data-driven partitions beat uniform ones.
func skewedTable(rng *rand.Rand, rows int) *table.Table {
	vals := make([]int64, rows)
	for i := range vals {
		v := int64(rng.ExpFloat64() * 150)
		if v > 1999 {
			v = 1999
		}
		vals[i] = v
	}
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("a", vals))
	return t
}

func TestBucketOfWithBoundaries(t *testing.T) {
	a := AttrMeta{Name: "a", Min: 0, Max: 99, NEntries: 4, Boundaries: []int64{9, 19, 49}}
	cases := []struct {
		val  int64
		want int
	}{
		{0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {49, 2}, {50, 3}, {99, 3},
		{-1, -1}, {100, 4}, // out of domain
	}
	for _, tc := range cases {
		if got := a.BucketOf(tc.val); got != tc.want {
			t.Errorf("BucketOf(%d) = %d, want %d", tc.val, got, tc.want)
		}
	}
	// BucketRange is the inverse partition description.
	ranges := [][2]int64{{0, 9}, {10, 19}, {20, 49}, {50, 99}}
	for idx, want := range ranges {
		lo, hi := a.BucketRange(idx)
		if lo != want[0] || hi != want[1] {
			t.Errorf("BucketRange(%d) = [%d, %d], want %v", idx, lo, hi, want)
		}
	}
}

func TestBoundaryPartitionInvariants(t *testing.T) {
	// Buckets from boundaries must partition the whole domain with no gaps
	// or overlaps, the same invariant the uniform path guarantees.
	rng := rand.New(rand.NewSource(5))
	tbl := skewedTable(rng, 3000)
	for _, part := range []Partitioner{equiDepthPartitioner, vOptimalPartitioner} {
		meta, err := NewTableMetaPartitioned(tbl, 16, part)
		if err != nil {
			t.Fatal(err)
		}
		a := meta.Attrs[0]
		prevHi := a.Min - 1
		for idx := 0; idx < a.NEntries; idx++ {
			lo, hi := a.BucketRange(idx)
			if lo != prevHi+1 {
				t.Fatalf("bucket %d starts at %d, want %d", idx, lo, prevHi+1)
			}
			if hi < lo {
				t.Fatalf("bucket %d empty: [%d, %d]", idx, lo, hi)
			}
			prevHi = hi
		}
		if prevHi != a.Max {
			t.Fatalf("buckets end at %d, want %d", prevHi, a.Max)
		}
		for v := a.Min; v <= a.Max; v++ {
			idx := a.BucketOf(v)
			lo, hi := a.BucketRange(idx)
			if v < lo || v > hi {
				t.Fatalf("value %d not inside its bucket %d = [%d, %d]", v, idx, lo, hi)
			}
		}
	}
}

// TestPartitionedDecodedBoundsBracketTruth extends the Lemma 3.2 bracketing
// property to data-driven partitions: whatever the boundaries, the decoded
// lower/upper bounds must bracket the true count.
func TestPartitionedDecodedBoundsBracketTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl := skewedTable(rng, 2000)
	meta, err := NewTableMetaPartitioned(tbl, 12, equiDepthPartitioner)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxEntriesPerAttr: 12, AttrSel: false}
	f := NewConjunctive(meta, opts)
	for trial := 0; trial < 150; trial++ {
		expr := randConjunction(rng, meta, 4)
		vec, err := featurize(f, expr)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodePartitioned(meta, opts, vec)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, err := CountDecodedBounds(tbl, decoded)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := exec.EvalExpr(tbl, expr)
		if err != nil {
			t.Fatal(err)
		}
		truth := int64(bm.Count())
		if truth < lo || truth > hi {
			t.Fatalf("trial %d: truth %d outside decoded bounds [%d, %d] for %s", trial, truth, lo, hi, expr)
		}
	}
}

// TestEquiDepthTightensBoundsOnSkew: on skewed data, equi-depth partitions
// concentrate resolution where the rows are, so the decoded count bounds
// are tighter (in expectation over anchored range queries) than uniform
// partitions at equal entry budget.
func TestEquiDepthTightensBoundsOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := skewedTable(rng, 4000)
	n := 12
	uniform := NewTableMeta(tbl, n)
	depth, err := NewTableMetaPartitioned(tbl, n, equiDepthPartitioner)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxEntriesPerAttr: n, AttrSel: false}
	col := tbl.Column("a")
	// Literals anchored at data values, like the paper's workloads: the
	// advantage of data-driven partitions materializes when queries touch
	// the data where it actually lives.
	anchoredRange := func(qrng *rand.Rand) sqlparse.Expr {
		v := col.Vals[qrng.Intn(col.Len())]
		w := int64(qrng.ExpFloat64() * 60)
		return sqlparse.NewAnd(
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: v - w},
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpLe, Val: v + w},
		)
	}
	width := func(meta *TableMeta) int64 {
		f := NewConjunctive(meta, opts)
		var total int64
		qrng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 200; trial++ {
			expr := anchoredRange(qrng)
			vec, err := featurize(f, expr)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodePartitioned(meta, opts, vec)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi, err := CountDecodedBounds(tbl, decoded)
			if err != nil {
				t.Fatal(err)
			}
			total += hi - lo
		}
		return total
	}
	wu, wd := width(uniform), width(depth)
	t.Logf("total decoded bound width: uniform=%d equi-depth=%d", wu, wd)
	if wd >= wu {
		t.Errorf("equi-depth bound width %d should beat uniform %d on skewed data", wd, wu)
	}
}

func TestNewTableMetaPartitionedRejectsBadBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := skewedTable(rng, 100)
	bad := func(*table.Column, int) ([]int64, error) {
		return []int64{50, 40}, nil // not ascending
	}
	if _, err := NewTableMetaPartitioned(tbl, 8, bad); err == nil {
		t.Error("descending boundaries accepted")
	}
	outOfRange := func(col *table.Column, int2 int) ([]int64, error) {
		return []int64{col.Max() + 10}, nil
	}
	if _, err := NewTableMetaPartitioned(tbl, 8, outOfRange); err == nil {
		t.Error("out-of-range boundary accepted")
	}
}

func TestPartitionedSmallDomainStaysExact(t *testing.T) {
	tbl := table.New("t")
	tbl.MustAddColumn(table.NewColumn("bin", []int64{0, 1, 0, 1, 1}))
	meta, err := NewTableMetaPartitioned(tbl, 16, equiDepthPartitioner)
	if err != nil {
		t.Fatal(err)
	}
	a := meta.Attrs[0]
	if !a.Exact() || a.NEntries != 2 || a.Boundaries != nil {
		t.Errorf("small domain should keep the exact uniform partitioning: %+v", a)
	}
}
