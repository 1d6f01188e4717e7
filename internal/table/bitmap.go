package table

import "math/bits"

// Bitmap is a fixed-length selection vector over the rows of a table. Bit i
// is set when row i qualifies. Bitmaps are the unit of predicate evaluation
// in the executor: each simple predicate produces a bitmap, and AND/OR
// combinations reduce to word-wise intersection/union.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-zero bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// NewFullBitmap returns an all-one bitmap over n rows.
func NewFullBitmap(n int) *Bitmap {
	b := NewBitmap(n)
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
	return b
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i as qualifying.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear marks row i as not qualifying.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// SetRange marks rows lo..hi-1 as qualifying, a word at a time. It panics
// unless 0 <= lo and hi <= Len(); an empty range is a no-op.
func (b *Bitmap) SetRange(lo, hi int) {
	if lo < 0 || hi > b.n {
		panic("table: bitmap range out of bounds")
	}
	if lo >= hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if first == last {
		b.words[first] |= loMask & hiMask
		return
	}
	b.words[first] |= loMask
	for i := first + 1; i < last; i++ {
		b.words[i] = ^uint64(0)
	}
	b.words[last] |= hiMask
}

// SetRows marks every row in rows as qualifying.
func (b *Bitmap) SetRows(rows []uint32) {
	for _, r := range rows {
		b.words[r>>6] |= 1 << (r & 63)
	}
}

// ClearRows marks every row in rows as not qualifying.
func (b *Bitmap) ClearRows(rows []uint32) {
	for _, r := range rows {
		b.words[r>>6] &^= 1 << (r & 63)
	}
}

// Get reports whether row i qualifies.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of qualifying rows.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// And intersects b with other in place. Both bitmaps must cover the same
// number of rows.
func (b *Bitmap) And(other *Bitmap) {
	b.check(other)
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or unions b with other in place.
func (b *Bitmap) Or(other *Bitmap) {
	b.check(other)
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot removes other's rows from b in place.
func (b *Bitmap) AndNot(other *Bitmap) {
	b.check(other)
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// Not complements b in place.
func (b *Bitmap) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.clearTail()
}

// Clone returns an independent copy of b.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// Indices returns the qualifying row indices in ascending order.
func (b *Bitmap) Indices() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every qualifying row index in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// ForEachRun calls fn for every maximal run lo..hi-1 of qualifying rows, in
// ascending order, without visiting the rows inside a run.
func (b *Bitmap) ForEachRun(fn func(lo, hi int)) {
	lo := -1 // start of a run still open at the end of the previous word
	for wi, w := range b.words {
		base := wi << 6
		if lo >= 0 {
			if w == ^uint64(0) {
				continue
			}
			z := bits.TrailingZeros64(^w)
			fn(lo, base+z)
			lo = -1
			w &^= 1<<uint(z) - 1
		}
		for w != 0 {
			s := bits.TrailingZeros64(w)
			n := bits.TrailingZeros64(^(w >> uint(s)))
			if s+n == 64 {
				lo = base + s
				break
			}
			fn(base+s, base+s+n)
			w &^= (1<<uint(n) - 1) << uint(s)
		}
	}
	if lo >= 0 {
		// Bits past the last row are never set, so an open run ends at it.
		fn(lo, b.n)
	}
}

func (b *Bitmap) check(other *Bitmap) {
	if b.n != other.n {
		panic("table: bitmap length mismatch")
	}
}

// clearTail zeroes the unused bits of the last word so Count stays exact.
func (b *Bitmap) clearTail() {
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}
