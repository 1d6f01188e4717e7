package table

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// checkDictionary holds d to its definition over vals: the distinct values
// ascending, every row once, grouped by value and ascending within one.
func checkDictionary(t *testing.T, vals []int64, d *Dictionary) {
	t.Helper()
	if len(d.Offsets) != len(d.Values)+1 || len(d.Rows) != len(vals) {
		t.Fatalf("%d values, %d offsets, %d rows over %d", len(d.Values), len(d.Offsets), len(d.Rows), len(vals))
	}
	if d.Offsets[0] != 0 || int(d.Offsets[len(d.Values)]) != len(vals) {
		t.Fatalf("offsets run %d..%d, want 0..%d", d.Offsets[0], d.Offsets[len(d.Values)], len(vals))
	}
	seen := make([]bool, len(vals))
	for c, v := range d.Values {
		if c > 0 && d.Values[c-1] >= v {
			t.Fatalf("values %d, %d at codes %d, %d: not ascending and distinct", d.Values[c-1], v, c-1, c)
		}
		rows := d.Rows[d.Offsets[c]:d.Offsets[c+1]]
		if len(rows) == 0 {
			t.Fatalf("code %d (value %d) has no row", c, v)
		}
		for i, r := range rows {
			if vals[r] != v {
				t.Fatalf("row %d carries %d, listed under %d", r, vals[r], v)
			}
			if i > 0 && rows[i-1] >= r {
				t.Fatalf("rows %d, %d under value %d: not ascending", rows[i-1], r, v)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("row %d under no value", r)
		}
	}
}

func TestDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []struct {
		name string
		val  func(i int) int64
	}{
		{"constant", func(int) int64 { return -7 }},
		{"binary", func(int) int64 { return int64(rng.Intn(2)) }},
		{"small signed", func(int) int64 { return int64(rng.Intn(41)) - 20 }},
		{"all distinct", func(i int) int64 { return int64(i*7919) % 10_007 }},
		{"every byte differs", func(int) int64 { return int64(rng.Uint64()) }},
		{"int64 extremes", func(int) int64 { return []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}[rng.Intn(5)] }},
	}
	for _, shape := range shapes {
		name, val := shape.name, shape.val
		for _, n := range []int{0, 1, 2, 255, 256, 257, 5000} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = val(i)
			}
			c := NewColumn("a", vals)
			d := c.Dictionary()
			checkDictionary(t, vals, d)
			if n > 0 && (len(d.Values) != c.Distinct() || d.Values[0] != c.Min() || d.Values[len(d.Values)-1] != c.Max()) {
				t.Errorf("%s n=%d: dictionary %d values %d..%d, stats %d values %d..%d", name, n,
					len(d.Values), d.Values[0], d.Values[len(d.Values)-1], c.Distinct(), c.Min(), c.Max())
			}
			if c.Dictionary() != d {
				t.Errorf("%s n=%d: a second call built a second dictionary", name, n)
			}
		}
	}
}

// TestDictionaryFirstTouchFromManyGoroutines: labeling workers and
// concurrent estimates meet a fresh column together; every one of them reads
// the one record and the one dictionary its construction built, and under
// -race this is the test that none of those reads needs a lock.
func TestDictionaryFirstTouchFromManyGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(rng.Intn(300))
	}
	c := NewColumn("a", vals)
	type read struct {
		min, max int64
		distinct int
		le       float64
		dict     *Dictionary
	}
	got := make([]read, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = read{c.Min(), c.Max(), c.Distinct(), c.FractionLE(150), c.Dictionary()}
		}()
	}
	wg.Wait()
	for g, r := range got {
		if r != got[0] {
			t.Fatalf("goroutine %d read %+v, goroutine 0 %+v", g, r, got[0])
		}
	}
	checkDictionary(t, vals, got[0].dict)
}

func BenchmarkBuildDictionary(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, bc := range []struct {
		name         string
		rows, domain int
	}{
		{"rows=20000/values=2000", 20_000, 2000},
		{"rows=100000/values=10000", 100_000, 10_000},
		{"rows=100000/values=100000000", 100_000, 100_000_000},
	} {
		vals := make([]int64, bc.rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(bc.domain))
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildDictionary(vals)
			}
		})
	}
}
