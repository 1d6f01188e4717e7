package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qfe/internal/bench/qft"
	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// The paper's baselines, Singular Predicate Encoding and Range Predicate
// Encoding, are built only by the experiment harness and live there
// (internal/bench/qft). Their tests stay beside the encodings they are
// measured against, in core's external test package: the layout pins, the
// map-based oracle they replaced (vectors bit for bit), the by-name grouping
// the stamped walk replaced (vectors and error texts), and the literals at
// and beyond the domain's edges. The baselines read each attribute's bounds
// alone, never its partitions, so one meta per table covers them.

// paperMeta reproduces the running example of Sections 3.2 and 3.3: numeric
// attributes A, B, C with min(A)=-9, max(A)=50, min(B)=0, max(B)=115, and C
// containing only values in {1, 2}; n=12 maximum per-attribute entries.
func paperMeta() *core.TableMeta {
	return mapped(core.NewTableMetaFromAttrs("t", []core.AttrMeta{
		{Name: "A", Min: -9, Max: 50},
		{Name: "B", Min: 0, Max: 115},
		{Name: "C", Min: 1, Max: 2},
	}, 12))
}

// mapped maps meta onto a table whose columns are its attributes, in order,
// the column layout stampByName stamps against. It returns meta.
func mapped(meta *core.TableMeta) *core.TableMeta {
	t := table.New(meta.Name)
	for _, a := range meta.Attrs {
		t.MustAddColumn(table.NewColumn(a.Name, []int64{a.Min}))
	}
	meta.MapColumns(t)
	return meta
}

// stampByName writes the column stamp of every numeric predicate under expr
// as exec.Bind would against a table whose columns are meta's attributes in
// order, resolving each name by name: a name meta lacks gets a column meta
// does not cover, and a name qualified with another table the column its
// unqualified part names. It returns expr.
func stampByName(meta *core.TableMeta, expr sqlparse.Expr) sqlparse.Expr {
	for _, p := range sqlparse.CollectPreds(expr) {
		if p.Str != nil {
			continue
		}
		ai := meta.AttrIndex(p.Attr)
		dot := strings.IndexByte(p.Attr, '.')
		if ai < 0 && dot >= 0 {
			ai = meta.AttrIndex(p.Attr[dot+1:])
		}
		p.Col, p.Qualified = int32(meta.NumAttrs()+1), dot >= 0
		if ai >= 0 {
			p.Col = int32(ai + 1)
		}
	}
	return expr
}

// wherePart parses src as a WHERE over meta's table, stamped by name.
func wherePart(t *testing.T, meta *core.TableMeta, src string) sqlparse.Expr {
	t.Helper()
	q, err := sqlparse.Parse("SELECT count(*) FROM t WHERE " + src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return stampByName(meta, q.Where)
}

// baselines are the two baselines over meta.
func baselines(meta *core.TableMeta) []core.Featurizer {
	return []core.Featurizer{qft.NewSimple(meta), qft.NewRange(meta)}
}

func vecEq(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d\n got  %v\n want %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, want %v\n got  %v\n want %v", label, i, got[i], want[i], got, want)
		}
	}
}

// poison fills dst with NaN so any entry FeaturizeInto fails to overwrite is
// caught by the comparison.
func poison(dst []float64) {
	for i := range dst {
		dst[i] = math.NaN()
	}
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(err, want error) bool {
	if err == nil || want == nil {
		return err == nil && want == nil
	}
	return err.Error() == want.Error()
}

func featurize(t *testing.T, f core.Featurizer, expr sqlparse.Expr) []float64 {
	t.Helper()
	vec, err := f.Featurize(expr)
	if err != nil {
		t.Fatalf("%s %v: %v", f.Name(), expr, err)
	}
	return vec
}

// orText is the refusal of a disjunction under the named baseline.
func orText(name string) string {
	if name == "simple" {
		return "core/simple: disjunctions are not supported by Singular Predicate Encoding"
	}
	return "core/range: disjunctions are not supported by Range Predicate Encoding"
}

// byNameFeaturizeInto is f.FeaturizeInto with the grouping the baselines
// used before they read exec.Bind's column stamp: every predicate's
// attribute looked up by name in meta's index (a qualified name sliced at its
// dot), conjuncts in order of appearance, the first refusal reported.
func byNameFeaturizeInto(f core.Featurizer, meta *core.TableMeta, dst []float64, expr sqlparse.Expr) error {
	name := f.Name()
	if len(dst) != f.Dim() {
		return fmt.Errorf("core/%s: destination length %d, want %d", name, len(dst), f.Dim())
	}
	per := make([][]*sqlparse.Pred, meta.NumAttrs())
	var walk func(sqlparse.Expr) error
	walk = func(expr sqlparse.Expr) error {
		switch n := expr.(type) {
		case nil:
			return nil
		case *sqlparse.And:
			for _, k := range n.Kids {
				if err := walk(k); err != nil {
					return err
				}
			}
			return nil
		case *sqlparse.Or:
			return core.Unsupported(errors.New(orText(name)))
		case *sqlparse.Pred:
			if n.Str != nil {
				return fmt.Errorf("core/%s: unbound string predicate %s", name, n)
			}
			ai := meta.AttrIndex(n.Attr)
			if ai < 0 {
				return core.Unsupported(fmt.Errorf("core/%s: unknown attribute %q", name, n.Attr))
			}
			per[ai] = append(per[ai], n)
			return nil
		}
		return core.Unsupported(fmt.Errorf("core/%s: conjunct %q has no predicates", name, expr))
	}
	if err := walk(expr); err != nil {
		return err
	}
	clear(dst)
	for ai, a := range meta.Attrs {
		if name == "range" {
			dst[2*ai], dst[2*ai+1] = qft.FeaturizeAttrRange(a, per[ai])
		} else if len(per[ai]) > 0 {
			p := per[ai][0]
			block := dst[4*ai : 4*ai+4]
			block[0], block[1], block[2] = qft.OpBits(p.Op)
			block[3] = a.Normalize(p.Val)
		}
	}
	return nil
}

// diffByName featurizes every expression with f and with the by-name
// grouping, and holds the two to the same bits or the same error text.
func diffByName(t *testing.T, label string, f core.Featurizer, meta *core.TableMeta, exprs []sqlparse.Expr) {
	t.Helper()
	got, want := make([]float64, f.Dim()), make([]float64, f.Dim())
	for i, expr := range exprs {
		poison(got)
		err := f.FeaturizeInto(got, expr)
		wantErr := byNameFeaturizeInto(f, meta, want, expr)
		where := fmt.Sprintf("%s %s expr %d (%v)", label, f.Name(), i, expr)
		if !sameErr(err, wantErr) {
			t.Fatalf("%s: err %v, by-name err %v", where, err, wantErr)
		}
		if err == nil {
			vecEq(t, got, want, where)
		}
	}
}

// oracleFeaturize is the allocating implementation that served the
// baselines before the grouping walk: sqlparse's generic analyses and a map
// per call.
func oracleFeaturize(f core.Featurizer, meta *core.TableMeta, expr sqlparse.Expr) ([]float64, error) {
	if !sqlparse.IsConjunctive(expr) {
		return nil, errors.New(orText(f.Name()))
	}
	vec := make([]float64, f.Dim())
	if f.Name() == "simple" {
		seen := make(map[int]bool)
		for _, p := range sqlparse.CollectPreds(expr) {
			if p.Str != nil {
				return nil, fmt.Errorf("core/simple: unbound string predicate %s", p)
			}
			ai := meta.AttrIndex(p.Attr)
			if ai < 0 {
				return nil, fmt.Errorf("core/simple: unknown attribute %q", p.Attr)
			}
			if seen[ai] {
				continue
			}
			seen[ai] = true
			vec[4*ai], vec[4*ai+1], vec[4*ai+2] = qft.OpBits(p.Op)
			vec[4*ai+3] = meta.Attrs[ai].Normalize(p.Val)
		}
		return vec, nil
	}
	perAttr := make(map[string][]*sqlparse.Pred)
	for _, p := range sqlparse.CollectPreds(expr) {
		if meta.AttrIndex(p.Attr) < 0 {
			return nil, fmt.Errorf("core/range: unknown attribute %q", p.Attr)
		}
		if p.Str != nil {
			return nil, fmt.Errorf("core/range: unbound string predicate %s", p)
		}
		perAttr[p.Attr] = append(perAttr[p.Attr], p)
	}
	for i, a := range meta.Attrs {
		ps, ok := perAttr[a.Name]
		if !ok {
			ps = perAttr[meta.Name+"."+a.Name]
		}
		vec[2*i], vec[2*i+1] = qft.FeaturizeAttrRange(a, ps)
	}
	return vec, nil
}

// randTable builds a random 3-attribute table with small domains.
func randTable(rng *rand.Rand, rows int) *table.Table {
	t := table.New("t")
	a := make([]int64, rows)
	b := make([]int64, rows)
	c := make([]int64, rows)
	for i := 0; i < rows; i++ {
		a[i] = int64(rng.Intn(40) - 10)
		b[i] = int64(rng.Intn(25))
		c[i] = int64(rng.Intn(4))
	}
	t.MustAddColumn(table.NewColumn("a", a))
	t.MustAddColumn(table.NewColumn("b", b))
	t.MustAddColumn(table.NewColumn("c", c))
	return t
}

// randConjunction builds a random conjunctive expression over meta's
// attributes with literals inside (and slightly beyond) each domain, stamped.
func randConjunction(rng *rand.Rand, meta *core.TableMeta, maxPreds int) sqlparse.Expr {
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	k := 1 + rng.Intn(maxPreds)
	kids := make([]sqlparse.Expr, 0, k)
	for i := 0; i < k; i++ {
		a := meta.Attrs[rng.Intn(len(meta.Attrs))]
		span := a.DomainSize() + 4
		val := a.Min - 2 + int64(rng.Int63n(span))
		kids = append(kids, &sqlparse.Pred{Attr: a.Name, Op: ops[rng.Intn(len(ops))], Val: val})
	}
	return stampByName(meta, sqlparse.NewAnd(kids...))
}

func TestSimpleEncodingLayout(t *testing.T) {
	meta := paperMeta()
	f := qft.NewSimple(meta)
	if f.Dim() != 12 {
		t.Fatalf("Dim = %d, want 12", f.Dim())
	}
	// A > 5 AND B = 7 from Section 2.1.1 (adapted to this table's domains).
	got := featurize(t, f, wherePart(t, meta, "A > 5 AND B = 7"))
	// A block: [eq gt lt lit] = [0 1 0 (5+9)/59].
	vecEq(t, got[0:3], []float64{0, 1, 0}, "A op bits")
	if got[3] != 14.0/59.0 {
		t.Errorf("A literal = %v, want %v", got[3], 14.0/59.0)
	}
	vecEq(t, got[4:7], []float64{1, 0, 0}, "B op bits")
	if got[7] != 7.0/115.0 {
		t.Errorf("B literal = %v, want %v", got[7], 7.0/115.0)
	}
	// C block all zero: no predicate.
	vecEq(t, got[8:12], []float64{0, 0, 0, 0}, "C block")
}

func TestSimpleOpProjections(t *testing.T) {
	meta := paperMeta()
	f := qft.NewSimple(meta)
	for _, tc := range []struct {
		src  string
		want []float64 // eq, gt, lt
	}{
		{"A >= 5", []float64{1, 1, 0}},
		{"A <= 5", []float64{1, 0, 1}},
		{"A <> 5", []float64{0, 1, 1}},
	} {
		vecEq(t, featurize(t, f, wherePart(t, meta, tc.src))[0:3], tc.want, tc.src)
	}
}

// TestSimpleInformationLoss documents the failure mode of Section 3: with
// two predicates on one attribute, Singular Predicate Encoding keeps only
// the first — two very different queries collide onto one vector.
func TestSimpleInformationLoss(t *testing.T) {
	meta := paperMeta()
	f := qft.NewSimple(meta)
	wide := featurize(t, f, wherePart(t, meta, "A > 5"))
	narrow := featurize(t, f, wherePart(t, meta, "A > 5 AND A < 8"))
	vecEq(t, narrow, wide, "collision of one- and two-predicate queries")
}

func TestSimpleRejectsDisjunction(t *testing.T) {
	meta := paperMeta()
	if _, err := qft.NewSimple(meta).Featurize(wherePart(t, meta, "A = 1 OR A = 2")); err == nil {
		t.Error("Singular Predicate Encoding must reject disjunctions")
	}
}

func TestRangeEncoding(t *testing.T) {
	meta := paperMeta()
	f := qft.NewRange(meta)
	if f.Dim() != 6 {
		t.Fatalf("Dim = %d, want 6", f.Dim())
	}
	got := featurize(t, f, wherePart(t, meta, "A >= 0 AND A < 10 AND B = 50"))
	// A: [0, 9] normalized over [-9, 50].
	if got[0] != 9.0/59.0 || got[1] != 18.0/59.0 {
		t.Errorf("A range = [%v, %v], want [%v, %v]", got[0], got[1], 9.0/59.0, 18.0/59.0)
	}
	// B: point [50, 50].
	if got[2] != got[3] || got[2] != 50.0/115.0 {
		t.Errorf("B range = [%v, %v], want equal at %v", got[2], got[3], 50.0/115.0)
	}
	// C: untouched, full range.
	if got[4] != 0 || got[5] != 1 {
		t.Errorf("C range = [%v, %v], want [0, 1]", got[4], got[5])
	}
}

func TestRangeIntersectsMultiplePredicates(t *testing.T) {
	// Several range predicates on one attribute intersect losslessly.
	meta := paperMeta()
	f := qft.NewRange(meta)
	a := featurize(t, f, wherePart(t, meta, "A >= 0 AND A <= 20 AND A >= 5"))
	b := featurize(t, f, wherePart(t, meta, "A >= 5 AND A <= 20"))
	vecEq(t, a, b, "range intersection")
}

// TestRangeDropsNotEqual documents Range Predicate Encoding's information
// loss: <> predicates vanish (the Figure 3 spike at three predicates).
func TestRangeDropsNotEqual(t *testing.T) {
	meta := paperMeta()
	f := qft.NewRange(meta)
	with := featurize(t, f, wherePart(t, meta, "A >= 0 AND A <= 20 AND A <> 10"))
	without := featurize(t, f, wherePart(t, meta, "A >= 0 AND A <= 20"))
	vecEq(t, with, without, "<> dropped")
}

func TestRangeEmptyRangeEncoding(t *testing.T) {
	meta := paperMeta()
	got := featurize(t, qft.NewRange(meta), wherePart(t, meta, "A > 10 AND A < 5"))
	// Inverted marker [1, 0]: distinguishable from any satisfiable range.
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("empty range encoded as [%v, %v], want [1, 0]", got[0], got[1])
	}
}

// TestFeaturizeIntoRepeatedAttrsSimple pins Simple's first-of-the-chain
// dedupe against the map-based oracle on expressions that repeat attributes
// (first predicate wins).
func TestFeaturizeIntoRepeatedAttrsSimple(t *testing.T) {
	rng := rand.New(rand.NewSource(6464))
	meta := core.NewTableMeta(randTable(rng, 100), 16)
	f := qft.NewSimple(meta)
	dst := make([]float64, f.Dim())
	for trial := 0; trial < 500; trial++ {
		// High predicate count over 3 attributes guarantees repeats.
		expr := randConjunction(rng, meta, 8)
		want, err := oracleFeaturize(f, meta, expr)
		if err != nil {
			t.Fatal(err)
		}
		poison(dst)
		if err := f.FeaturizeInto(dst, expr); err != nil {
			t.Fatal(err)
		}
		vecEq(t, dst, want, fmt.Sprintf("simple/repeat trial %d", trial))
	}
}

// TestBaselinesMatchOracle: on randomized conjunctions and the no-predicate
// query, over plain and frequency-weighted metas, the walk gives the map-based
// oracle's vector bit for bit on one dirty, reused buffer; on the serving
// traffic (mixed queries) it refuses exactly what the oracle refuses; and a
// wrong-length destination, a disjunction, an unknown and an unbound
// attribute are refused by both.
func TestBaselinesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	tbl := randTable(rng, 300)
	for _, meta := range []*core.TableMeta{core.NewTableMeta(tbl, 16), core.NewTableMetaWeighted(tbl, 16)} {
		for _, f := range baselines(meta) {
			dst := make([]float64, f.Dim())
			for trial := 0; trial < 400; trial++ {
				expr := randConjunction(rng, meta, 5)
				want, err := oracleFeaturize(f, meta, expr)
				if err != nil {
					t.Fatalf("%s: %v", f.Name(), err)
				}
				poison(dst)
				if err := f.FeaturizeInto(dst, expr); err != nil {
					t.Fatalf("%s: FeaturizeInto: %v", f.Name(), err)
				}
				vecEq(t, dst, want, fmt.Sprintf("%s trial %d", f.Name(), trial))
			}
			want, err := oracleFeaturize(f, meta, nil)
			if err != nil {
				t.Fatal(err)
			}
			poison(dst)
			if err := f.FeaturizeInto(dst, nil); err != nil {
				t.Fatal(err)
			}
			vecEq(t, dst, want, f.Name()+"/nil")
		}
	}

	n := 2000
	if testing.Short() {
		n = 300
	}
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 1500, QuantAttrs: 12, BinaryAttrs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: n, MaxAttrs: 8, MaxNotEquals: 5, Seed: 11},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := core.NewTableMeta(forest, 32)
	for _, f := range baselines(meta) {
		dst := make([]float64, f.Dim())
		for i, q := range mixed.Queries() {
			want, wantErr := oracleFeaturize(f, meta, q.Where)
			poison(dst)
			err := f.FeaturizeInto(dst, q.Where)
			if (wantErr == nil) != (err == nil) {
				t.Fatalf("%s query %d: oracle err %v, walk err %v\n%s", f.Name(), i, wantErr, err, q)
			}
			if err == nil {
				vecEq(t, dst, want, fmt.Sprintf("%s query %d", f.Name(), i))
			}
		}
	}

	small := core.NewTableMeta(randTable(rng, 50), 8)
	str := "x"
	for _, f := range baselines(small) {
		if err := f.FeaturizeInto(make([]float64, f.Dim()+1), nil); err == nil {
			t.Errorf("%s: oversized destination accepted", f.Name())
		}
		for _, bad := range []sqlparse.Expr{
			stampByName(small, sqlparse.NewOr(&sqlparse.Pred{Attr: "a", Op: sqlparse.OpEq, Val: 1}, &sqlparse.Pred{Attr: "b", Op: sqlparse.OpEq, Val: 2})),
			stampByName(small, &sqlparse.Pred{Attr: "nope", Op: sqlparse.OpEq, Val: 1}),
			&sqlparse.Pred{Attr: "a", Op: sqlparse.OpEq, Str: &str},
		} {
			_, refErr := oracleFeaturize(f, small, bad)
			intoErr := f.FeaturizeInto(make([]float64, f.Dim()), bad)
			if refErr == nil || intoErr == nil {
				t.Errorf("%s %v: oracle err %v, FeaturizeInto err %v, want both refused", f.Name(), bad, refErr, intoErr)
			}
		}
	}
}

// TestBaselinesShapeErrors: a refusal that depends only on the query's shape
// is marked ErrUnsupported and keeps its text.
func TestBaselinesShapeErrors(t *testing.T) {
	meta := mapped(core.NewTableMetaFromAttrs("t", []core.AttrMeta{{Name: "a", Min: 0, Max: 99}, {Name: "b", Min: 0, Max: 9}}, 10))
	for _, tc := range []struct {
		f    core.Featurizer
		src  string
		text string
	}{
		{qft.NewSimple(meta), "a >= 1 OR a <= 0", orText("simple")},
		{qft.NewRange(meta), "a >= 1 OR a <= 0", orText("range")},
		{qft.NewRange(meta), "t.z = 2", `core/range: unknown attribute "t.z"`},
		{qft.NewSimple(meta), "a >= 1 AND other.b <= 3", `core/simple: unknown attribute "other.b"`},
	} {
		err := tc.f.FeaturizeInto(make([]float64, tc.f.Dim()), wherePart(t, meta, tc.src))
		if !errors.Is(err, core.ErrUnsupported) || err.Error() != tc.text {
			t.Errorf("%s %s: err = %v, want %q marked ErrUnsupported", tc.f.Name(), tc.src, err, tc.text)
		}
	}
}

// TestBaselinesAtTheDomainEdges: a literal outside [Min, Max] is true of the
// whole domain or of none of it — range says [0, 1] or the empty marker
// [1, 0] (<> is dropped, so it reads as the whole), simple the operator bits
// and the literal clamped to the nearer end — for the literals next to the
// domain and at the ends of int64, where val±1 and val-Min once wrapped;
// and both spellings of one attribute are one attribute.
func TestBaselinesAtTheDomainEdges(t *testing.T) {
	ops := []sqlparse.CmpOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	for name, attr := range map[string]core.AttrMeta{
		"uniform":    {Name: "A", Min: -9, Max: 50},
		"uniform>0":  {Name: "A", Min: 1000, Max: 1999},
		"boundaries": {Name: "A", Min: 0, Max: 99, Boundaries: []int64{9, 19, 49}},
	} {
		n := 12
		if attr.Boundaries != nil {
			n = len(attr.Boundaries) + 1
		}
		meta := mapped(core.NewTableMetaFromAttrs("t", []core.AttrMeta{attr}, n))
		a := meta.Attrs[0]
		for _, lit := range []int64{a.Min - 1, a.Max + 1, math.MinInt64, math.MaxInt64} {
			for _, op := range ops {
				label := fmt.Sprintf("%s: A %s %d", name, op, lit)
				expr := stampByName(meta, &sqlparse.Pred{Attr: "A", Op: op, Val: lit})
				all := predHolds(op, a.Min, lit) // the same for every v in the domain
				r := featurize(t, qft.NewRange(meta), expr)
				if all || op == sqlparse.OpNe {
					vecEq(t, r, []float64{0, 1}, label+" (range)")
				} else {
					vecEq(t, r, []float64{1, 0}, label+" (range)")
				}
				eq, gt, lt := qft.OpBits(op)
				clamped := 0.0
				if lit > a.Max {
					clamped = 1
				}
				vecEq(t, featurize(t, qft.NewSimple(meta), expr), []float64{eq, gt, lt, clamped}, label+" (simple)")
			}
		}
	}

	meta := mapped(core.NewTableMetaFromAttrs("t", []core.AttrMeta{{Name: "a", Min: -20, Max: 79}}, 10))
	for _, p := range []*sqlparse.Pred{
		{Attr: "a", Op: sqlparse.OpGt, Val: math.MaxInt64},
		{Attr: "a", Op: sqlparse.OpLt, Val: math.MinInt64},
	} {
		vecEq(t, featurize(t, qft.NewRange(meta), stampByName(meta, p)), []float64{1, 0}, "range "+p.String())
	}
	gtMax := stampByName(meta, &sqlparse.Pred{Attr: "a", Op: sqlparse.OpGt, Val: math.MaxInt64})
	vecEq(t, featurize(t, qft.NewSimple(meta), gtMax), []float64{0, 1, 0, 1}, "simple "+gtMax.String())

	meta = mapped(core.NewTableMetaFromAttrs("t", []core.AttrMeta{{Name: "a", Min: 0, Max: 99}}, 10))
	for _, where := range []string{"a >= 50 AND a <= 59", "t.a >= 50 AND a <= 59", "a >= 50 AND t.a <= 59", "t.a >= 50 AND t.a <= 59"} {
		vecEq(t, featurize(t, qft.NewRange(meta), wherePart(t, meta, where)), []float64{50.0 / 99, 59.0 / 99}, "range "+where)
	}
}

// predHolds reports whether "v op lit" holds.
func predHolds(op sqlparse.CmpOp, v, lit int64) bool {
	switch op {
	case sqlparse.OpEq:
		return v == lit
	case sqlparse.OpNe:
		return v != lit
	case sqlparse.OpLt:
		return v < lit
	case sqlparse.OpLe:
		return v <= lit
	case sqlparse.OpGt:
		return v > lit
	case sqlparse.OpGe:
		return v >= lit
	}
	return false
}

// TestBaselinesStampedMatchByName: the benchmark's generators (mixed and
// conjunctive, seeds 1-2), whose queries are bound where they are labeled;
// JOB-light and the join training workload, split per table; and the edge
// cases of core's own stamped test — a column the meta does not cover,
// attributes mixed inside one OR, another table's qualifier, two faults in
// one query, both spellings of one attribute. Each baseline gives the
// by-name grouping's vector or error text, and refuses every fault as
// Unsupported.
func TestBaselinesStampedMatchByName(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 120
	}
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 3000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	meta := core.NewTableMeta(forest, 32)
	for seed := int64(1); seed <= 2; seed++ {
		conj := workload.ConjConfig{Count: n, MaxAttrs: 8, MaxNotEquals: 5, Seed: seed}
		mixed, err := workload.Mixed(forest, workload.MixedConfig{ConjConfig: conj, MaxBranches: 3})
		if err != nil {
			t.Fatal(err)
		}
		conjunctive, err := workload.Conjunctive(forest, conj)
		if err != nil {
			t.Fatal(err)
		}
		var exprs []sqlparse.Expr
		for _, q := range append(mixed.Queries(), conjunctive.Queries()...) {
			exprs = append(exprs, q.Where)
		}
		for _, f := range baselines(meta) {
			diffByName(t, fmt.Sprintf("seed %d", seed), f, meta, exprs)
		}
	}

	imdb, err := dataset.IMDB(dataset.IMDBConfig{Titles: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	suite, err := workload.JOBLight(imdb, schema, workload.DefaultJOBLightConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, err := workload.JoinTraining(imdb, schema, workload.JoinConfig{Count: 300, MinJoins: 0, MaxJoins: 3, MaxPreds: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	metas := map[string]*core.TableMeta{}
	for _, tn := range imdb.TableNames() {
		metas[tn] = core.NewTableMeta(imdb.Table(tn), 32)
	}
	for i, q := range append(suite.Queries(), train.Queries()...) {
		ands := make([]sqlparse.And, len(q.Tables))
		if err := core.SplitWhereByTable(q, q.Tables, ands); err != nil {
			t.Fatalf("query %d (%s): %v", i, q, err)
		}
		for j, tn := range q.Tables {
			exprs := []sqlparse.Expr{&ands[j]}
			if len(q.Tables) == 1 {
				exprs = append(exprs, q.Where)
			}
			for _, f := range baselines(metas[tn]) {
				diffByName(t, fmt.Sprintf("query %d (%s) table %s", i, q, tn), f, metas[tn], exprs)
			}
		}
	}

	db, edge := edgeDB()
	var exprs []sqlparse.Expr
	for _, src := range []string{
		"SELECT count(*) FROM t WHERE A < 7 AND D = 5",
		"SELECT count(*) FROM t WHERE A < 7 AND (B = 1 OR D = 5)",
		"SELECT count(*) FROM t WHERE (A = 1 OR B = 2) AND C = 1",
		"SELECT count(*) FROM t, u WHERE t.A < 7 AND u.A = 5",
		"SELECT count(*) FROM t, v WHERE t.B = 2 AND v.A = 5",
		"SELECT count(*) FROM t WHERE D = 5 AND (C = 1 OR B = 2)",
		"SELECT count(*) FROM t WHERE B > 3 AND C = 1 AND D = 2",
		// Both spellings of one attribute.
		"SELECT count(*) FROM t WHERE t.A < 7 AND A > 4 AND t.B <> 3 AND B > 1",
	} {
		q := sqlparse.MustParse(src)
		if err := exec.Bind(q, db); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		exprs = append(exprs, q.Where)
	}
	for _, f := range baselines(edge) {
		diffByName(t, "edge", f, edge, exprs)
		for i, expr := range exprs[:7] {
			if err := f.FeaturizeInto(make([]float64, f.Dim()), expr); !errors.Is(err, core.ErrUnsupported) {
				t.Errorf("%s expr %d (%s): err %v, want one marked ErrUnsupported", f.Name(), i, expr, err)
			}
		}
	}
}

// edgeDB is a database whose table t has columns A, B, C (the paper's
// running example) and one more, D, which the featurizers' meta does not
// cover; a table u whose column A is its second, and a table v whose column
// A is, as t's, its first.
func edgeDB() (*table.DB, *core.TableMeta) {
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("A", []int64{-9, 50}))
	t.MustAddColumn(table.NewColumn("B", []int64{0, 115}))
	t.MustAddColumn(table.NewColumn("C", []int64{1, 2}))
	meta := core.NewTableMeta(t, 12)
	t.MustAddColumn(table.NewColumn("D", []int64{0, 9}))
	u := table.New("u")
	u.MustAddColumn(table.NewColumn("B", []int64{0, 9}))
	u.MustAddColumn(table.NewColumn("A", []int64{0, 9}))
	v := table.New("v")
	v.MustAddColumn(table.NewColumn("A", []int64{0, 9}))
	db := table.NewDB()
	db.MustAdd(t)
	db.MustAdd(u)
	db.MustAdd(v)
	return db, meta
}

// TestBaselinesReadTheStamp: a predicate nobody bound is refused as
// Unsupported with a text naming it, the same on every call, and featurizes
// once bound; a meta restored from a spec reads the stamps of whatever table
// MapColumns maps it onto, whatever its column order.
func TestBaselinesReadTheStamp(t *testing.T) {
	db, meta := edgeDB()
	const src = "SELECT count(*) FROM t WHERE A < 7 AND B >= 30"
	for _, f := range baselines(meta) {
		q := sqlparse.MustParse(src)
		want := fmt.Sprintf("core/%s: predicate A < 7 is not bound to a column (exec.Bind)", f.Name())
		for i := 0; i < 2; i++ {
			err := f.FeaturizeInto(make([]float64, f.Dim()), q.Where)
			if !errors.Is(err, core.ErrUnsupported) || err.Error() != want {
				t.Fatalf("%s call %d: err %v, want %q marked ErrUnsupported", f.Name(), i, err, want)
			}
		}
		if err := exec.Bind(q, db); err != nil {
			t.Fatal(err)
		}
		if err := f.FeaturizeInto(make([]float64, f.Dim()), q.Where); err != nil {
			t.Errorf("%s after Bind: %v", f.Name(), err)
		}
	}

	restored, err := core.NewTableMetaFromSpec(meta.Spec())
	if err != nil {
		t.Fatal(err)
	}
	shuffled := table.New("t")
	for _, name := range []string{"D", "C", "A", "B"} {
		shuffled.MustAddColumn(table.NewColumn(name, []int64{0, 1}))
	}
	sdb := table.NewDB()
	sdb.MustAdd(shuffled)
	if missing := restored.MapColumns(shuffled); missing != "" {
		t.Fatalf("MapColumns: missing %q", missing)
	}
	q := sqlparse.MustParse("SELECT count(*) FROM t WHERE A < 7 AND B > 90 AND C = 2 AND A >= 1")
	if err := exec.Bind(q, sdb); err != nil {
		t.Fatal(err)
	}
	for _, f := range baselines(restored) {
		diffByName(t, "shuffled", f, restored, []sqlparse.Expr{q.Where})
	}
}

// FuzzBaselines parses fuzzed WHERE text over a table of a wide, a one-value,
// two int64-extreme and a small-domain attribute, binds it
// (exec.Bind, or by name where Bind refuses it, so the featurizers' own
// refusals stay fuzzed) and holds both baselines to the by-name grouping's
// vector or error text. Run the corpus as a normal test, or explore with
// `go test -fuzz=FuzzBaselines ./internal/core`.
func FuzzBaselines(f *testing.F) {
	for _, s := range []string{
		"u >= 10",
		"u >= 10 AND u <= 500 AND u <> 32 AND u <> 33",
		"(u = 1 OR u = 2) AND (u <> 3 OR u < 0)",
		"o = 7 AND o <> 7 AND o > 6",
		"lo < -9223372036854775808 AND lo >= -9223372036854775000",
		"hi > 9223372036854775807 AND hi >= 9223372036854775000 AND hi <> 9223372036854775806",
		"b > 9 AND b <= 19 AND b = 50 AND b <> 51",
		"z = 1",
		"u = 'x'",
		"u = 5 AND t.b <= 40 AND other.u > 3",
	} {
		f.Add(s)
	}
	meta := mapped(core.NewTableMetaFromAttrs("t", []core.AttrMeta{
		{Name: "u", Min: -9, Max: 990},
		{Name: "o", Min: 7, Max: 7},
		{Name: "lo", Min: math.MinInt64, Max: math.MinInt64 + 999},
		{Name: "hi", Min: math.MaxInt64 - 1<<40, Max: math.MaxInt64},
		{Name: "b", Min: 0, Max: 99},
	}, 32))
	tbl := table.New("t")
	for _, a := range meta.Attrs {
		tbl.MustAddColumn(table.NewColumn(a.Name, []int64{a.Min}))
	}
	db := table.NewDB()
	db.MustAdd(tbl)
	f.Fuzz(func(t *testing.T, where string) {
		q, err := sqlparse.Parse("SELECT count(*) FROM t WHERE " + where)
		if err != nil {
			return
		}
		if exec.Bind(q, db) != nil {
			stampByName(meta, q.Where)
		}
		for _, f := range baselines(meta) {
			diffByName(t, fmt.Sprintf("%q", where), f, meta, []sqlparse.Expr{q.Where})
		}
	})
}
