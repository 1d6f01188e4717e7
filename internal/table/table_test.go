package table

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestColumnStats(t *testing.T) {
	c := NewColumn("a", []int64{5, -3, 7, 5, 0})
	if c.Min() != -3 {
		t.Errorf("Min = %d, want -3", c.Min())
	}
	if c.Max() != 7 {
		t.Errorf("Max = %d, want 7", c.Max())
	}
	if c.DomainSize() != 11 {
		t.Errorf("DomainSize = %d, want 11", c.DomainSize())
	}
	if c.Distinct() != 4 {
		t.Errorf("Distinct = %d, want 4", c.Distinct())
	}
}

// histogramShapes are the columns TestHistogram and TestStatsMatchOracle
// analyze: one value, small and exact domains, a forest-like spread, and
// spans up to all of int64.
func histogramShapes() []struct {
	name string
	vals []int64
} {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name string
		vals []int64
	}{
		{"constant", []int64{-7, -7, -7}},
		{"small domain", []int64{3, 5, 5, 9, 40}},
		{"domain of exactly 100", []int64{0, 50, 99}},
		{"forest-like", nil},
		{"wide", []int64{0, 1 << 40, 1 << 62, 1<<62 + 5}},
		{"all of int64", []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}},
		{"all of int64 but one", []int64{math.MinInt64 + 1, 0, math.MaxInt64}},
	}
	for i := 0; i < 2000; i++ {
		shapes[3].vals = append(shapes[3].vals, int64(rng.Intn(3000))+1800)
	}
	return shapes
}

// TestHistogram: a column's histogram counts every row once, its buckets
// tile [Min, Max] in order, and the bucket named for a value holds it and
// exactly the rows its count says. Where (max-min+1)*buckets fits in an
// int64, the bucket is the one the int64 formula (v-min)*b/domain gives;
// where it does not, up to a domain of all of int64, the 128-bit arithmetic
// neither wraps nor divides by zero. FractionLE is 0 below Min, 1 from Max
// on, for any int64, and never falls as v grows.
func TestHistogram(t *testing.T) {
	for _, sh := range histogramShapes() {
		c := NewColumn("a", sh.vals)
		h := c.stats.hist
		var sum int64
		for _, n := range h {
			sum += n
		}
		if sum != int64(c.Len()) || len(h) < 1 || len(h) > histogramBuckets {
			t.Errorf("%s: %d buckets holding %d rows, want 1..%d holding %d", sh.name, len(h), sum, histogramBuckets, c.Len())
		}
		narrow := uint64(c.Max()-c.Min()) < math.MaxInt64/histogramBuckets
		for _, v := range sh.vals {
			i, lo, hi := c.stats.bucket(v)
			var in int64
			for _, w := range sh.vals {
				if lo <= w && w <= hi {
					in++
				}
			}
			if v < lo || v > hi || in != h[i] {
				t.Errorf("%s: %d in bucket %d = [%d, %d] holding %d rows, counted %d", sh.name, v, i, lo, hi, in, h[i])
			}
			if b, domain := int64(len(h)), c.DomainSize(); narrow && int64(i) != (v-c.Min())*b/domain {
				t.Errorf("%s: %d in bucket %d, the int64 formula says %d", sh.name, v, i, (v-c.Min())*b/domain)
			}
		}
		for _, v := range []int64{math.MinInt64, c.Min() - 1, c.Max() + 1, math.MaxInt64} {
			want := 1.0 // Min-1 and Max+1 may wrap: whatever they land on, this holds
			if v < c.Min() {
				want = 0
			} else if v < c.Max() {
				continue
			}
			if got := c.FractionLE(v); got != want {
				t.Errorf("%s: FractionLE(%d) = %v, want %v", sh.name, v, got, want)
			}
		}
		prev, sorted := 0.0, slices.Clone(sh.vals)
		slices.Sort(sorted)
		for _, v := range sorted {
			f := c.FractionLE(v)
			if f < prev || f <= 0 || f > 1 {
				t.Errorf("%s: FractionLE(%d) = %v after %v, want in (0, 1] and not falling", sh.name, v, f, prev)
			}
			prev = f
		}
		for k, v := 0, c.Min(); ; k++ {
			i, lo, hi := c.stats.bucket(v)
			if i != k || lo != v || hi < lo {
				t.Fatalf("%s: bucket %d at %d is %d = [%d, %d]", sh.name, k, v, i, lo, hi)
			}
			if hi == c.Max() {
				if k != len(h)-1 {
					t.Errorf("%s: buckets end at Max after %d of %d", sh.name, k+1, len(h))
				}
				break
			}
			v = hi + 1
		}
	}
}

// TestDropRowsKeepsStatistics: DB.DropRows frees the rows and the value
// dictionaries, and every statistic answers as it did before — the ones
// gathered already and the ones no reader had asked for yet — as do the row
// counts, the string dictionary Bind reads and Decode. A table with an empty
// column drops too; that column stays empty.
func TestDropRowsKeepsStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(700) - 200
	}
	type stats struct {
		min, max, domain int64
		distinct, rows   int
		le               []float64
	}
	read := func(c *Column) stats {
		s := stats{min: c.Min(), max: c.Max(), domain: c.DomainSize(), distinct: c.Distinct(), rows: c.Len()}
		for v := int64(-250); v <= 550; v += 7 {
			s.le = append(s.le, c.FractionLE(v))
		}
		return s
	}
	db := NewDB()
	tbl := New("t")
	tbl.MustAddColumn(NewColumn("asked", vals))
	tbl.MustAddColumn(NewColumn("unasked", slices.Clone(vals)))
	strs := make([]string, len(vals))
	for i := range strs {
		strs[i] = []string{"b", "a", "c"}[i%3]
	}
	tbl.MustAddColumn(NewStringColumn("s", strs))
	db.MustAdd(tbl)
	want := read(tbl.Column("asked"))
	tbl.Column("asked").Dictionary()
	db.DropRows()
	for _, name := range []string{"asked", "unasked"} {
		c := tbl.Column(name)
		if c.Vals != nil || c.dict != nil {
			t.Errorf("%s: the drop kept %d rows and dictionary %v", name, len(c.Vals), c.dict != nil)
		}
		if got := read(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s after the drop: %+v, want %+v", name, got, want)
		}
	}
	if n := tbl.NumRows(); n != len(vals) {
		t.Errorf("NumRows after the drop = %d, want %d", n, len(vals))
	}
	if s := tbl.Column("s"); s.Dict == nil || s.Decode(0) != "a" {
		t.Errorf("the drop lost the string dictionary: Dict %v, Decode(0) %q", s.Dict, s.Decode(0))
	}

	empty := New("e")
	empty.MustAddColumn(NewColumn("a", nil))
	edb := NewDB()
	edb.MustAdd(empty)
	edb.DropRows()
	if n := empty.NumRows(); n != 0 {
		t.Errorf("an empty table reads %d rows after the drop", n)
	}
}

func TestEmptyColumnStatsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty column stats")
		}
	}()
	NewColumn("a", nil).Min()
}

func TestStringColumnPreservesOrder(t *testing.T) {
	c := NewStringColumn("s", []string{"banana", "apple", "cherry", "apple"})
	// Dictionary must be sorted so code order equals lexicographic order.
	for i := 1; i < len(c.Dict); i++ {
		if c.Dict[i-1] >= c.Dict[i] {
			t.Fatalf("dictionary not sorted: %v", c.Dict)
		}
	}
	// apple < banana < cherry must hold on the codes.
	apple, banana, cherry := c.Vals[1], c.Vals[0], c.Vals[2]
	if !(apple < banana && banana < cherry) {
		t.Errorf("codes do not preserve order: apple=%d banana=%d cherry=%d", apple, banana, cherry)
	}
	if c.Vals[1] != c.Vals[3] {
		t.Error("equal strings must share a code")
	}
	if c.Decode(apple) != "apple" {
		t.Errorf("Decode(apple code) = %q", c.Decode(apple))
	}
}

func TestTableColumnManagement(t *testing.T) {
	tbl := New("t")
	tbl.MustAddColumn(NewColumn("a", []int64{1, 2, 3}))
	if err := tbl.AddColumn(NewColumn("a", []int64{4, 5, 6})); err == nil {
		t.Error("expected error for duplicate column name")
	}
	if err := tbl.AddColumn(NewColumn("b", []int64{1})); err == nil {
		t.Error("expected error for row-count mismatch")
	}
	tbl.MustAddColumn(NewColumn("b", []int64{7, 8, 9}))
	if tbl.NumRows() != 3 || tbl.NumCols() != 2 {
		t.Errorf("shape = (%d, %d), want (3, 2)", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.Column("b") == nil || tbl.Column("missing") != nil {
		t.Error("Column lookup misbehaves")
	}
	names := tbl.ColumnNames()
	if names[0] != "a" || names[1] != "b" {
		t.Errorf("ColumnNames = %v", names)
	}
}

func TestDBManagement(t *testing.T) {
	db := NewDB()
	db.MustAdd(New("x"))
	if err := db.Add(New("x")); err == nil {
		t.Error("expected error for duplicate table")
	}
	db.MustAdd(New("y"))
	if got := db.TableNames(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("TableNames = %v", got)
	}
	if db.Table("y") == nil || db.Table("z") != nil {
		t.Error("Table lookup misbehaves")
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap: len=%d count=%d", b.Len(), b.Count())
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Errorf("Count = %d, want 3", b.Count())
	}
	if !b.Get(64) || b.Get(63) {
		t.Error("Get misbehaves across word boundary")
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Error("Clear misbehaves")
	}
	got := b.Indices()
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Errorf("Indices = %v", got)
	}
}

func TestFullBitmapTail(t *testing.T) {
	// The last partial word must not leak phantom rows into Count.
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129} {
		if got := NewFullBitmap(n).Count(); got != n {
			t.Errorf("NewFullBitmap(%d).Count() = %d", n, got)
		}
	}
}

func TestBitmapNotRespectsTail(t *testing.T) {
	b := NewBitmap(70)
	b.Not()
	if got := b.Count(); got != 70 {
		t.Errorf("Not on empty 70-bitmap: Count = %d, want 70", got)
	}
}

func TestBitmapLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	NewBitmap(10).And(NewBitmap(11))
}

// TestBitmapAgainstBoolSlice cross-checks all bitmap operations against a
// naive []bool model on random inputs.
func TestBitmapAgainstBoolSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		a, b := NewBitmap(n), NewBitmap(n)
		ma, mb := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
				ma[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
				mb[i] = true
			}
		}
		check := func(op string, bm *Bitmap, model func(x, y bool) bool) {
			t.Helper()
			want := 0
			for i := 0; i < n; i++ {
				if model(ma[i], mb[i]) {
					want++
				}
				if bm.Get(i) != model(ma[i], mb[i]) {
					t.Fatalf("n=%d %s bit %d mismatch", n, op, i)
				}
			}
			if bm.Count() != want {
				t.Fatalf("n=%d %s Count=%d want %d", n, op, bm.Count(), want)
			}
		}
		and := a.Clone()
		and.And(b)
		check("and", and, func(x, y bool) bool { return x && y })
		or := a.Clone()
		or.Or(b)
		check("or", or, func(x, y bool) bool { return x || y })
		andNot := a.Clone()
		andNot.AndNot(b)
		check("andnot", andNot, func(x, y bool) bool { return x && !y })
		not := a.Clone()
		not.Not()
		check("not", not, func(x, _ bool) bool { return !x })
	}
}

func TestBitmapForEachMatchesIndices(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		b := NewBitmap(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		var visited []int
		b.ForEach(func(i int) { visited = append(visited, i) })
		want := b.Indices()
		if len(visited) != len(want) {
			return false
		}
		for i := range want {
			if visited[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
