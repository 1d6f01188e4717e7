package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qfe/internal/bench/histogram"
	"qfe/internal/core"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// TestEveryMetaConstructorRefusesInvalidMetas: core's four TableMeta
// constructors and the harness's two partition policies all come through
// core's one constructor, so each refuses every invalid meta it can be
// handed — with an error, or a panic at construction, naming the attribute
// — and never returns a meta that fails later in FeaturizeInto. A path that
// cannot express a case (NewTableMeta derives every field from a table, and
// a table has no duplicate column) is not listed under it.
func TestEveryMetaConstructorRefusesInvalidMetas(t *testing.T) {
	valid := func() core.AttrMeta {
		return core.AttrMeta{Name: "a", Min: 0, Max: 99, NEntries: 4, Boundaries: []int64{9, 19, 49}}
	}
	with := func(mod func(*core.AttrMeta)) []core.AttrMeta {
		a := valid()
		mod(&a)
		return []core.AttrMeta{{Name: "b", Min: 0, Max: 9, NEntries: 2}, a}
	}
	// wide's column spans int64, a domain whose size an int64 cannot count.
	wide := table.New("t")
	wide.MustAddColumn(table.NewColumn("a", []int64{math.MinInt64, 0, math.MaxInt64}))
	narrow := table.New("t")
	narrow.MustAddColumn(table.NewColumn("a", []int64{0, 50, 99}))

	type path struct {
		name  string
		build func() (*core.TableMeta, error)
	}
	fromSpec := func(attrs []core.AttrMeta) path {
		return path{"NewTableMetaFromSpec", func() (*core.TableMeta, error) {
			return core.NewTableMetaFromSpec(core.MetaSpec{Name: "t", Attrs: attrs})
		}}
	}
	fromAttrs := func(n int, attrs []core.AttrMeta) path {
		return path{"NewTableMetaFromAttrs", func() (*core.TableMeta, error) {
			return core.NewTableMetaFromAttrs("t", attrs, n), nil
		}}
	}
	partitioned := func(tbl *table.Table, bounds []int64) path {
		return path{"histogram.PartitionedMeta", func() (*core.TableMeta, error) {
			return histogram.PartitionedMeta(tbl, 8, func([]int64, int) ([]int64, error) { return bounds, nil })
		}}
	}
	cases := map[string][]path{
		"zero entries": {
			fromSpec(with(func(a *core.AttrMeta) { a.NEntries, a.Boundaries = 0, nil })),
			fromAttrs(8, []core.AttrMeta{{Name: "a", Min: math.MinInt64, Max: math.MaxInt64}}),
			{"NewTableMeta", func() (*core.TableMeta, error) { return core.NewTableMeta(wide, 8), nil }},
			{"NewTableMetaWeighted", func() (*core.TableMeta, error) { return core.NewTableMetaWeighted(wide, 8), nil }},
			partitioned(wide, nil),
			{"adaptiveMeta", func() (*core.TableMeta, error) { return adaptiveMeta(wide, 32, 2) }},
		},
		"entries above the domain": {
			fromSpec(with(func(a *core.AttrMeta) { a.Max, a.Boundaries = 2, nil })),
		},
		"unsorted boundaries": {
			fromSpec(with(func(a *core.AttrMeta) { a.Boundaries = []int64{9, 49, 19} })),
			fromAttrs(4, with(func(a *core.AttrMeta) { a.Boundaries = []int64{9, 49, 19} })),
			partitioned(narrow, []int64{50, 40}),
		},
		"boundary out of range": {
			fromSpec(with(func(a *core.AttrMeta) { a.Boundaries = []int64{9, 19, 99} })),
			fromAttrs(4, with(func(a *core.AttrMeta) { a.Boundaries = []int64{-1, 19, 49} })),
			partitioned(narrow, []int64{109}),
		},
		"boundaries for another entry count": {
			fromSpec(with(func(a *core.AttrMeta) { a.NEntries = 5 })),
			fromAttrs(8, with(func(*core.AttrMeta) {})),
		},
		"weights of the wrong length": {
			fromSpec(with(func(a *core.AttrMeta) { a.Weights = make([]float64, 3) })),
			fromAttrs(4, with(func(a *core.AttrMeta) { a.Weights = make([]float64, 3) })),
		},
		"duplicate attribute": {
			fromSpec(append(with(func(*core.AttrMeta) {}), valid())),
			fromAttrs(4, append(with(func(*core.AttrMeta) {}), valid())),
		},
	}
	refusal := func(build func() (*core.TableMeta, error)) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		if _, err := build(); err != nil {
			return err.Error()
		}
		return ""
	}
	covered := map[string]bool{}
	for name, paths := range cases {
		for _, p := range paths {
			covered[p.name] = true
			msg := refusal(p.build)
			if msg == "" {
				t.Errorf("%s: %s accepted the meta", name, p.name)
			} else if !strings.Contains(msg, `"a"`) {
				t.Errorf("%s: %s refused it with %q, which does not name the attribute", name, p.name, msg)
			}
		}
	}
	if len(covered) != 6 {
		t.Errorf("%d constructor paths exercised, want 6: %v", len(covered), covered)
	}
}

// decodedBounds is the pair of counts a partitioned vector over t (one
// block per attribute of meta, each followed by its selectivity entry under
// attrSel) brackets the query's true count with: the rows whose every value
// lies in a partition entered 1, and the rows none of whose values lies in a
// partition entered 0 (core's decoder, for one table).
func decodedBounds(t *table.Table, meta *core.TableMeta, attrSel bool, vec []float64) (lo, hi int64) {
	blocks := make([][]float64, len(meta.Attrs))
	off := 0
	for i, a := range meta.Attrs {
		blocks[i] = vec[off : off+a.NEntries]
		off += a.NEntries
		if attrSel {
			off++
		}
	}
	for r := 0; r < t.NumRows(); r++ {
		entry := 1.0
		for i, a := range meta.Attrs {
			v := t.Column(a.Name).Vals[r]
			k := sort.Search(a.NEntries, func(k int) bool { _, hi := a.BucketRange(k); return hi >= v })
			entry = math.Min(entry, blocks[i][k])
		}
		if entry == 1 {
			lo++
		}
		if entry > 0 {
			hi++
		}
	}
	return lo, hi
}

// adaptiveTestTable builds a table with one wide, one medium, and one binary
// attribute so the budget split is observable.
func adaptiveTestTable() *table.Table {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	wide := make([]int64, n)
	medium := make([]int64, n)
	binary := make([]int64, n)
	for i := 0; i < n; i++ {
		wide[i] = int64(rng.Intn(5000))
		medium[i] = int64(rng.Intn(40))
		binary[i] = int64(rng.Intn(2))
	}
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("wide", wide))
	t.MustAddColumn(table.NewColumn("medium", medium))
	t.MustAddColumn(table.NewColumn("bin", binary))
	return t
}

// mustAdaptive is adaptiveMeta failing t on a refusal.
func mustAdaptive(t *testing.T, tbl *table.Table, budget, minEntries int) *core.TableMeta {
	t.Helper()
	m, err := adaptiveMeta(tbl, budget, minEntries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAdaptiveMetaAllocatesByDistinct(t *testing.T) {
	m := mustAdaptive(t, adaptiveTestTable(), 96, 2)
	wide, _ := m.Attr("wide")
	medium, _ := m.Attr("medium")
	bin, _ := m.Attr("bin")

	if wide.NEntries <= medium.NEntries {
		t.Errorf("wide (%d entries) should get more than medium (%d)", wide.NEntries, medium.NEntries)
	}
	// Binary attributes are capped at their domain size.
	if bin.NEntries != 2 {
		t.Errorf("bin.NEntries = %d, want 2", bin.NEntries)
	}
	// Every attribute respects the minimum and its domain cap.
	for _, a := range m.Attrs {
		if a.NEntries < 2 && a.DomainSize() >= 2 {
			t.Errorf("%s got %d entries, below the minimum", a.Name, a.NEntries)
		}
		if int64(a.NEntries) > a.DomainSize() {
			t.Errorf("%s got %d entries for domain %d", a.Name, a.NEntries, a.DomainSize())
		}
	}
}

func TestAdaptiveMetaUsableByFeaturizers(t *testing.T) {
	tbl := adaptiveTestTable()
	db := table.NewDB()
	db.MustAdd(tbl)
	m := mustAdaptive(t, tbl, 64, 2)
	opts := core.Options{MaxEntriesPerAttr: 64, AttrSel: true}
	f := core.NewConjunctive(m, opts)
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE wide >= 100 AND wide <= 2000 AND bin = 1")
	if err := exec.Bind(q, db); err != nil {
		t.Fatal(err)
	}
	vec, err := f.Featurize(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != f.Dim() {
		t.Fatalf("vector length %d != Dim %d", len(vec), f.Dim())
	}
	// The decoded structure must still bracket the truth.
	truth, err := exec.Count(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := decodedBounds(tbl, m, opts.AttrSel, vec); truth < lo || truth > hi {
		t.Fatalf("truth %d outside the decoded bounds [%d, %d]", truth, lo, hi)
	}
}

func TestAdaptiveMetaMinimumFloor(t *testing.T) {
	// A budget far below the per-attribute minimum must still floor at
	// minEntries (clamped by domain size).
	m := mustAdaptive(t, adaptiveTestTable(), 3, 4)
	for _, a := range m.Attrs {
		want := int64(4)
		if d := a.DomainSize(); d < want {
			want = d
		}
		if int64(a.NEntries) != want {
			t.Errorf("%s got %d entries, want %d", a.Name, a.NEntries, want)
		}
	}
}
