package core

import (
	"fmt"
	"math"
	"testing"

	"qfe/internal/sqlparse"
)

// TestLiteralsOutsideTheDomain: a predicate whose literal lies outside
// [Min, Max] is true of the whole domain or of none of it, and both QFTs must
// say exactly that — for the literals next to the domain (Min-1 used to
// truncate toward zero into bucket 0, so "A = Min-1" featurized as [½, 0, …])
// and for the ones at the ends of int64 (where (val-Min)·n overflowed), under
// uniform partitions and under explicit boundaries. The harness's baselines
// are held to the same literals in baselines_test.go.
func TestLiteralsOutsideTheDomain(t *testing.T) {
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	for name, attr := range map[string]AttrMeta{
		"uniform":    {Name: "A", Min: -9, Max: 50},
		"uniform>0":  {Name: "A", Min: 1000, Max: 1999},
		"boundaries": {Name: "A", Min: 0, Max: 99, Boundaries: []int64{9, 19, 49}},
	} {
		n := 12
		if attr.Boundaries != nil {
			n = len(attr.Boundaries) + 1
		}
		meta := NewTableMetaFromAttrs("t", []AttrMeta{attr}, n)
		a := meta.Attrs[0]
		opts := Options{MaxEntriesPerAttr: n, AttrSel: true}
		for _, lit := range []int64{a.Min - 1, a.Max + 1, math.MinInt64, math.MaxInt64} {
			t.Run(fmt.Sprintf("%s/%d", name, lit), func(t *testing.T) {
				wantIdx := -1
				if lit > a.Max {
					wantIdx = a.NEntries
				}
				if got := a.BucketOf(lit); got != wantIdx {
					t.Errorf("%s: BucketOf(%d) = %d, want %d", name, lit, got, wantIdx)
				}
				for _, op := range ops {
					label := fmt.Sprintf("%s: A %s %d", name, op, lit)
					expr := &sqlparse.Pred{Attr: "A", Op: op, Val: lit}
					all := predHolds(expr, a.Min) // the same for every v in the domain
					bit := 0.0
					if all {
						bit = 1
					}

					// conjunctive, complex: n entries and the selectivity, all
					// 1 or all 0; decoded, every domain value is admitted
					// exactly as the predicate says.
					want := make([]float64, a.NEntries+1)
					fill(want, bit)
					for _, qft := range []string{"conjunctive", "complex"} {
						f, err := New(qft, meta, opts)
						if err != nil {
							t.Fatal(err)
						}
						vec, err := featurize(f, expr)
						if err != nil {
							t.Fatalf("%s (%s): %v", label, qft, err)
						}
						vecEq(t, vec, want, label+" ("+qft+")")
						dec, err := DecodePartitioned(meta, opts, vec)
						if err != nil {
							t.Fatalf("%s (%s): decode: %v", label, qft, err)
						}
						for v := a.Min; v <= a.Max; v++ {
							if adm, exact := dec[0].Admits(v); !exact || adm != predHolds(expr, v) {
								t.Fatalf("%s (%s): decoded vector admits %d = %v (exact %v)", label, qft, v, adm, exact)
							}
						}
						if adm, exact := dec[0].Admits(lit); adm || !exact {
							t.Errorf("%s (%s): decoded vector admits the literal itself", label, qft)
						}
					}
				}
			})
		}
	}
}
