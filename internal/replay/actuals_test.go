package replay

import (
	"math"
	"testing"
)

func TestActualIndexBoundedAndPicky(t *testing.T) {
	ix := NewActualIndex(2)
	ix.Put("a", 10)
	ix.Put("b", 20)
	ix.Put("c", 30) // over capacity: dropped
	if len(ix.m) != 2 {
		t.Fatalf("%d fingerprints indexed, want the 2-entry cap honored", len(ix.m))
	}
	if _, ok := ix.m["c"]; ok {
		t.Error("over-cap fingerprint was admitted")
	}
	ix.Put("a", 11) // known fingerprints keep updating at capacity
	if v, ok := ix.m["a"]; !ok || v != 11 {
		t.Errorf("a = (%d, %v), want the refreshed 11", v, ok)
	}
	ix.Put("", 5)    // no fingerprint
	ix.Put("d", -1)  // negative
	ix.Put("d", 1.5) // fractional
	ix.Put("d", math.NaN())
	if len(ix.m) != 2 {
		t.Fatalf("%d fingerprints indexed after rejected puts, want 2", len(ix.m))
	}

	// An explicit zero actual is legitimate feedback and indexable.
	big := NewActualIndex(0)
	big.Put("zero", 0)
	if v, ok := big.m["zero"]; !ok || v != 0 {
		t.Errorf("zero actual = (%d, %v), want (0, true)", v, ok)
	}
}

// TestActualIndexInt64Boundary: 2^63 is finite, integral and non-negative, and
// one more than an int64 holds — converted it is math.MinInt64. The bound was
// "> math.MaxInt64", which as a float64 comparison is "> 2^63" and let exactly
// that value through, overwriting a good label with -9223372036854775808.
func TestActualIndexInt64Boundary(t *testing.T) {
	ix := NewActualIndex(0)
	largest := math.Nextafter(1<<63, 0) // 2^63-1024, the largest float64 an int64 holds
	ix.Put("fp", largest)
	if v, ok := ix.m["fp"]; !ok || v != math.MaxInt64-1023 {
		t.Fatalf("Put(2^63-1024) indexed (%d, %v), want (%d, true)", v, ok, int64(math.MaxInt64-1023))
	}
	for _, over := range []float64{1 << 63, math.Nextafter(1<<63, math.Inf(1)), math.MaxFloat64, math.Inf(1)} {
		ix.Put("fp", 42)
		ix.Put("fp", over)
		if v, ok := ix.m["fp"]; !ok || v != 42 {
			t.Errorf("Put(%g) left (%d, %v) in the index, want the earlier 42 to survive", over, v, ok)
		}
		ix.Put("new", over)
	}
	if len(ix.m) != 1 {
		t.Errorf("%d fingerprints indexed, want 1: an actual no int64 holds must not be indexed", len(ix.m))
	}
}
