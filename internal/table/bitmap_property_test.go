package table

import (
	"math/rand"
	"testing"
)

// randomBitmap fills a bitmap of length n with random bits and returns the
// reference bool slice alongside it.
func randomBitmap(rng *rand.Rand, n int) (*Bitmap, []bool) {
	bm := NewBitmap(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			bm.Set(i)
			ref[i] = true
		}
	}
	return bm, ref
}

// lengths exercises the clearTail edge cases: empty, sub-word, exact word
// multiples, and one-off-from-multiple sizes.
var lengths = []int{0, 1, 3, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097}

// TestBitmapNotProperty: Not must complement every valid bit and never leak
// set bits into the tail padding — Count(b) + Count(¬b) == n for every
// length, including non-multiples of 64.
func TestBitmapNotProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			bm, ref := randomBitmap(rng, n)
			before := bm.Count()
			bm.Not()
			if got, want := bm.Count(), n-before; got != want {
				t.Fatalf("n=%d: Count(¬b) = %d, want %d", n, got, want)
			}
			for i := 0; i < n; i++ {
				if bm.Get(i) == ref[i] {
					t.Fatalf("n=%d: bit %d not complemented", n, i)
				}
			}
			// Double complement restores the original exactly.
			bm.Not()
			for i := 0; i < n; i++ {
				if bm.Get(i) != ref[i] {
					t.Fatalf("n=%d: double Not broke bit %d", n, i)
				}
			}
		}
	}
}

// TestFullBitmapTailLengths: NewFullBitmap must count exactly n for tail
// lengths, and stay exact through Not round trips.
func TestFullBitmapTailLengths(t *testing.T) {
	for _, n := range lengths {
		full := NewFullBitmap(n)
		if got := full.Count(); got != n {
			t.Fatalf("n=%d: full count = %d", n, got)
		}
		full.Not()
		if got := full.Count(); got != 0 {
			t.Fatalf("n=%d: ¬full count = %d", n, got)
		}
	}
}

// TestBitmapCountMatchesIndices: Count, Indices, and ForEach must agree on
// every length, and Indices must ascend.
func TestBitmapCountMatchesIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range lengths {
		bm, ref := randomBitmap(rng, n)
		want := 0
		for _, b := range ref {
			if b {
				want++
			}
		}
		if got := bm.Count(); got != want {
			t.Fatalf("n=%d: Count = %d, want %d", n, got, want)
		}
		idx := bm.Indices()
		if len(idx) != want {
			t.Fatalf("n=%d: %d indices, want %d", n, len(idx), want)
		}
		for j := 1; j < len(idx); j++ {
			if idx[j] <= idx[j-1] {
				t.Fatalf("n=%d: indices not ascending at %d", n, j)
			}
		}
		visited := 0
		bm.ForEach(func(i int) {
			if !ref[i] {
				t.Fatalf("n=%d: ForEach visited clear bit %d", n, i)
			}
			visited++
		})
		if visited != want {
			t.Fatalf("n=%d: ForEach visited %d, want %d", n, visited, want)
		}
	}
}

// TestBitmapBooleanAlgebra: And/Or/AndNot against the reference bool-slice
// model on tail-heavy lengths.
func TestBitmapBooleanAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		a, refA := randomBitmap(rng, n)
		b, refB := randomBitmap(rng, n)

		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		andNot := a.Clone()
		andNot.AndNot(b)
		for i := 0; i < n; i++ {
			if and.Get(i) != (refA[i] && refB[i]) {
				t.Fatalf("n=%d: And wrong at %d", n, i)
			}
			if or.Get(i) != (refA[i] || refB[i]) {
				t.Fatalf("n=%d: Or wrong at %d", n, i)
			}
			if andNot.Get(i) != (refA[i] && !refB[i]) {
				t.Fatalf("n=%d: AndNot wrong at %d", n, i)
			}
		}
		// De Morgan on the bitmap level: ¬(a ∧ b) == ¬a ∨ ¬b.
		left := a.Clone()
		left.And(b)
		left.Not()
		na, nb := a.Clone(), b.Clone()
		na.Not()
		nb.Not()
		na.Or(nb)
		for i := 0; i < n; i++ {
			if left.Get(i) != na.Get(i) {
				t.Fatalf("n=%d: De Morgan broken at %d", n, i)
			}
		}
		if left.Count() != na.Count() {
			t.Fatalf("n=%d: De Morgan counts differ", n)
		}
	}
}

// TestBitmapFromWords: wrapping prebuilt words gives, word for word, the
// bitmap Set builds from the same rows, with whatever the caller left past
// the last row cleared; a word slice of the wrong length is a caller bug and
// panics.
func TestBitmapFromWords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		want, ref := randomBitmap(rng, n)
		words := make([]uint64, (n+63)/64)
		for i := range words {
			words[i] = ^uint64(0) // garbage everywhere, the tail included
		}
		for i, set := range ref {
			if !set {
				words[i>>6] &^= 1 << uint(i&63)
			}
		}
		got := BitmapFromWords(words, n)
		if got.Len() != n || got.Count() != want.Count() {
			t.Fatalf("n=%d: Len %d Count %d, want %d and %d", n, got.Len(), got.Count(), n, want.Count())
		}
		for i := range want.words {
			if got.words[i] != want.words[i] {
				t.Fatalf("n=%d: word %d is %#x, want %#x", n, i, got.words[i], want.words[i])
			}
		}
	}
	for _, bad := range []struct{ words, n int }{{0, 1}, {1, 0}, {1, 65}, {3, 128}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d words accepted for %d rows", bad.words, bad.n)
				}
			}()
			BitmapFromWords(make([]uint64, bad.words), bad.n)
		}()
	}
}

// TestBitmapSetRange: every range of every length in lengths, both ends on,
// before and past each word boundary, sets exactly its rows and leaves the
// others — set or not — as they were.
func TestBitmapSetRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range lengths {
		ends := []int{0, 1, 62, 63, 64, 65, 127, 128, 129, n - 1, n}
		for _, lo := range ends {
			for _, hi := range ends {
				if lo < 0 || hi > n || lo > n {
					continue
				}
				bm, ref := randomBitmap(rng, n)
				bm.SetRange(lo, hi)
				count := 0
				for i := 0; i < n; i++ {
					want := ref[i] || (lo <= i && i < hi)
					if bm.Get(i) != want {
						t.Fatalf("n=%d SetRange(%d, %d): row %d is %v", n, lo, hi, i, bm.Get(i))
					}
					if want {
						count++
					}
				}
				if bm.Count() != count {
					t.Fatalf("n=%d SetRange(%d, %d): Count %d, want %d — bits set past the last row", n, lo, hi, bm.Count(), count)
				}
			}
		}
	}
	for _, bad := range [][2]int{{-1, 3}, {0, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetRange(%d, %d) over 10 rows accepted", bad[0], bad[1])
				}
			}()
			NewBitmap(10).SetRange(bad[0], bad[1])
		}()
	}
}

// TestBitmapForEachRun: the runs are maximal, ascending, and cover exactly
// the qualifying rows — on random bitmaps, on long runs crossing several
// words, and on the full and empty bitmaps of every length.
func TestBitmapForEachRun(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(name string, bm *Bitmap) {
		t.Helper()
		covered, prevHi := 0, -1
		bm.ForEachRun(func(lo, hi int) {
			if lo >= hi || hi > bm.Len() {
				t.Fatalf("%s: run %d..%d", name, lo, hi)
			}
			if lo <= prevHi {
				t.Fatalf("%s: run %d..%d follows one ending at %d: not maximal or not ascending", name, lo, hi, prevHi)
			}
			for i := lo; i < hi; i++ {
				if !bm.Get(i) {
					t.Fatalf("%s: run %d..%d covers row %d, which is not set", name, lo, hi, i)
				}
			}
			covered += hi - lo
			prevHi = hi
		})
		if covered != bm.Count() {
			t.Fatalf("%s: runs cover %d rows of %d", name, covered, bm.Count())
		}
	}
	for _, n := range lengths {
		check("empty", NewBitmap(n))
		check("full", NewFullBitmap(n))
		for trial := 0; trial < 20; trial++ {
			bm, _ := randomBitmap(rng, n)
			check("random", bm)
			if n > 0 {
				long := NewBitmap(n)
				for k := 0; k < 3; k++ {
					lo := rng.Intn(n)
					long.SetRange(lo, lo+rng.Intn(n-lo+1))
				}
				check("long runs", long)
			}
		}
	}
}

// TestBitmapSetClearRows: the bulk forms agree with Set and Clear row by row.
func TestBitmapSetClearRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range lengths[1:] {
		got, _ := randomBitmap(rng, n)
		want := got.Clone()
		rows := make([]uint32, n/2+1)
		for i := range rows {
			rows[i] = uint32(rng.Intn(n))
		}
		got.SetRows(rows)
		for _, r := range rows {
			want.Set(int(r))
		}
		got.ClearRows(rows[:len(rows)/2])
		for _, r := range rows[:len(rows)/2] {
			want.Clear(int(r))
		}
		for i := 0; i < n; i++ {
			if got.Get(i) != want.Get(i) {
				t.Fatalf("n=%d: row %d is %v, row-at-a-time %v", n, i, got.Get(i), want.Get(i))
			}
		}
	}
}
