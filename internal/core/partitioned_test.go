package core

import (
	"math/rand"
	"slices"
	"testing"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// BucketOf returns the zero-based feature-vector index of value val: for
// uniform partitions floor((val-min) / (max-min+1) * n_A), the index formula
// of Algorithm 1, line 4; with explicit Boundaries the first partition whose
// bound admits val, by binary search. Values outside the domain yield -1
// (below Min) or NEntries (above Max). It is the oracle the tabulated lookup
// (buckets.of) and BucketRange are held to.
func (a AttrMeta) BucketOf(val int64) int {
	if val < a.Min {
		return -1
	}
	if val > a.Max {
		return a.NEntries
	}
	if a.Boundaries == nil {
		return int((val - a.Min) * int64(a.NEntries) / a.DomainSize())
	}
	lo, hi := 0, len(a.Boundaries)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.Boundaries[mid] >= val {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// specMeta is NewTableMetaFromSpec mapped onto t's columns, failing tb on a
// refusal: how a partitioning policy other than Algorithm 1's reaches the
// featurizers.
func specMeta(tb testing.TB, spec MetaSpec, t *table.Table) *TableMeta {
	tb.Helper()
	m, err := NewTableMetaFromSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	if missing := m.MapColumns(t); missing != "" {
		tb.Fatalf("spec attribute %q is not a column of %s", missing, t.Name)
	}
	return m
}

// quantileMeta is t's metadata with data-driven partitions from a spec: at
// most n-1 boundaries at the column's value quantiles (equi-depth, with the
// repeats dropped), and the exact one-value-per-entry partitioning where the
// domain holds at most n values.
func quantileMeta(tb testing.TB, t *table.Table, n int) *TableMeta {
	spec := NewTableMeta(t, n).Spec()
	for i := range spec.Attrs {
		a := &spec.Attrs[i]
		if a.Exact() {
			continue
		}
		vals := slices.Clone(t.Column(a.Name).Vals)
		slices.Sort(vals)
		var bounds []int64
		for k := 1; k < n; k++ {
			if b := vals[k*len(vals)/n]; b < a.Max && (len(bounds) == 0 || b > bounds[len(bounds)-1]) {
				bounds = append(bounds, b)
			}
		}
		a.Boundaries, a.NEntries = bounds, len(bounds)+1
	}
	return specMeta(tb, spec, t)
}

// powersMeta is t's metadata with boundaries at Min+2^k-1: partitions that
// double in width, finest at the bottom of each domain.
func powersMeta(tb testing.TB, t *table.Table) *TableMeta {
	spec := NewTableMeta(t, 1).Spec()
	for i := range spec.Attrs {
		a := &spec.Attrs[i]
		a.Boundaries = nil
		for w := int64(1); a.Min+w-1 < a.Max; w *= 2 {
			a.Boundaries = append(a.Boundaries, a.Min+w-1)
		}
		a.NEntries = len(a.Boundaries) + 1
	}
	return specMeta(tb, spec, t)
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
	for _, meta := range []*TableMeta{quantileMeta(t, tbl, 16), powersMeta(t, tbl)} {
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
	meta := quantileMeta(t, tbl, 12)
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

// TestWideDomainPartitions: uniform partitions of a domain near 2^62 values,
// where k·(max-min+1) overflows int64 for every k > 1. BucketRange computes
// the product in 128 bits, so the partitions still tile the domain in equal
// widths, and a literal lands where Algorithm 1's index formula puts it
// instead of past the last partition.
func TestWideDomainPartitions(t *testing.T) {
	meta := NewTableMetaFromAttrs("t", []AttrMeta{{Name: "a", Min: 0, Max: 1 << 62}}, 64)
	a := meta.Attrs[0]
	next := a.Min
	for k := 0; k < a.NEntries; k++ {
		lo, hi := a.BucketRange(k)
		if lo != next || hi-lo+1 < 1<<56 || hi-lo+1 > 1<<56+1 {
			t.Fatalf("partition %d = [%d, %d], want it to start at %d and hold 2^56 values", k, lo, hi, next)
		}
		next = hi + 1
	}
	if next != a.Max+1 {
		t.Fatalf("partitions end at %d, want %d", next-1, a.Max)
	}
	// 2^61 is the last value of partition 31: a >= 2^61 splits it and
	// admits every partition above.
	vec, err := featurize(NewConjunctive(meta, Options{MaxEntriesPerAttr: 64}), &sqlparse.Pred{Attr: "a", Op: sqlparse.OpGe, Val: 1 << 61})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 64)
	want[31] = h
	fill(want[32:], 1)
	if !slices.Equal(vec, want) {
		t.Fatalf("a >= 2^61 featurized as %v, want %v", vec, want)
	}
}
