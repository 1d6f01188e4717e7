package histogram

import (
	"math/rand"
	"testing"
)

func TestEquiWidthMatchesAlgorithmFormula(t *testing.T) {
	// The paper's example attribute: A in [-9, 50], n = 12. EquiWidth must
	// reproduce exactly the partitions of Algorithm 1's index formula.
	min, max, n := int64(-9), int64(50), 12
	bounds, err := EquiWidth(min, max, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != n-1 {
		t.Fatalf("got %d boundaries, want %d", len(bounds), n-1)
	}
	domain := max - min + 1
	idxOf := func(v int64) int { return int((v - min) * int64(n) / domain) }
	bucketOf := func(v int64) int {
		for i, b := range bounds {
			if v <= b {
				return i
			}
		}
		return len(bounds)
	}
	for v := min; v <= max; v++ {
		if idxOf(v) != bucketOf(v) {
			t.Fatalf("value %d: formula bucket %d, boundary bucket %d", v, idxOf(v), bucketOf(v))
		}
	}
}

func TestEquiDepthBalancesCounts(t *testing.T) {
	// Heavy skew: most values tiny, long tail.
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 10000)
	for i := range vals {
		v := int64(rng.ExpFloat64() * 100)
		if v > 999 {
			v = 999
		}
		vals[i] = v
	}
	n := 8
	bounds, err := EquiDepth(vals, n)
	if err != nil {
		t.Fatal(err)
	}
	// Count rows per partition; no partition may hold more than ~3x the
	// ideal share (equi-width would put ~63% in the first).
	counts := make([]int, len(bounds)+1)
	for _, v := range vals {
		k := len(bounds)
		for i, b := range bounds {
			if v <= b {
				k = i
				break
			}
		}
		counts[k]++
	}
	ideal := len(vals) / (len(bounds) + 1)
	for i, c := range counts {
		if c > 3*ideal {
			t.Errorf("partition %d holds %d rows (ideal %d): not balanced, bounds=%v", i, c, ideal, bounds)
		}
	}
}

func TestEquiDepthFewDistinct(t *testing.T) {
	vals := []int64{1, 1, 1, 5, 5, 9}
	bounds, err := EquiDepth(vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Boundaries must stay strictly ascending and below max.
	prev := int64(0)
	for _, b := range bounds {
		if b <= prev && prev != 0 {
			t.Fatalf("boundaries not ascending: %v", bounds)
		}
		if b >= 9 {
			t.Fatalf("boundary at or above max: %v", bounds)
		}
		prev = b
	}
}

func TestVOptimalIsolatesHeavyValues(t *testing.T) {
	// Frequencies: two spikes at 100 and 200 in an otherwise flat domain
	// [0, 299]. V-optimal partitioning should place boundaries isolating
	// the spikes so within-partition variance drops.
	var vals []int64
	for v := int64(0); v < 300; v++ {
		vals = append(vals, v)
	}
	for i := 0; i < 3000; i++ {
		vals = append(vals, 100)
	}
	for i := 0; i < 3000; i++ {
		vals = append(vals, 200)
	}
	bounds, err := VOptimal(vals, 6, 300)
	if err != nil {
		t.Fatal(err)
	}
	// The spikes must not share a partition with a long flat stretch:
	// expect a boundary within a few values of each spike on both sides.
	nearSpike := func(spike int64) bool {
		hits := 0
		for _, b := range bounds {
			if b >= spike-3 && b <= spike+3 {
				hits++
			}
		}
		return hits >= 1
	}
	if !nearSpike(100) || !nearSpike(200) {
		t.Errorf("v-optimal boundaries %v do not isolate the spikes at 100 and 200", bounds)
	}
}

func TestVOptimalBeatsEquiWidthOnSSE(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, 20000)
	for i := range vals {
		// Mixture: two tight clusters plus noise.
		switch rng.Intn(3) {
		case 0:
			vals[i] = 50 + int64(rng.Intn(5))
		case 1:
			vals[i] = 700 + int64(rng.Intn(5))
		default:
			vals[i] = int64(rng.Intn(1000))
		}
	}
	n := 8
	vo, err := VOptimal(vals, n, 256)
	if err != nil {
		t.Fatal(err)
	}
	mn, mx := minMax(vals)
	ew, err := EquiWidth(mn, mx, n)
	if err != nil {
		t.Fatal(err)
	}
	if sseOf(vals, mn, mx, vo) > sseOf(vals, mn, mx, ew) {
		t.Errorf("v-optimal SSE %v exceeds equi-width SSE %v",
			sseOf(vals, mn, mx, vo), sseOf(vals, mn, mx, ew))
	}
}

// sseOf computes the within-partition frequency variance for boundaries.
func sseOf(vals []int64, mn, mx int64, bounds []int64) float64 {
	freq := make(map[int64]float64)
	for _, v := range vals {
		freq[v]++
	}
	var total float64
	lo := mn
	edges := append(append([]int64(nil), bounds...), mx)
	for _, hi := range edges {
		var sum, sumsq, cnt float64
		for v := lo; v <= hi; v++ {
			f := freq[v]
			sum += f
			sumsq += f * f
			cnt++
		}
		if cnt > 0 {
			total += sumsq - sum*sum/cnt
		}
		lo = hi + 1
	}
	return total
}

func TestValidation(t *testing.T) {
	if _, err := EquiWidth(10, 5, 4); err == nil {
		t.Error("inverted domain accepted")
	}
	if _, err := EquiWidth(0, 10, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := EquiDepth(nil, 4); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := VOptimal(nil, 4, 64); err == nil {
		t.Error("empty values accepted")
	}
}

func TestVOptimalSmallDomainFallsBack(t *testing.T) {
	vals := []int64{1, 2, 3, 1, 2}
	bounds, err := VOptimal(vals, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Domain of 3 values, 8 partitions requested: at most 2 boundaries.
	if len(bounds) > 2 {
		t.Errorf("got %d boundaries for a 3-value domain", len(bounds))
	}
}

func TestBoundariesAscendingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		vals := make([]int64, 500+rng.Intn(2000))
		for i := range vals {
			vals[i] = int64(rng.Intn(1 + rng.Intn(5000)))
		}
		n := 2 + rng.Intn(30)
		for name, gen := range map[string]func() ([]int64, error){
			"equidepth": func() ([]int64, error) { return EquiDepth(vals, n) },
			"voptimal":  func() ([]int64, error) { return VOptimal(vals, n, 128) },
		} {
			bounds, err := gen()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mn, mx := minMax(vals)
			if len(bounds) > n-1 {
				t.Fatalf("%s: %d boundaries for n=%d", name, len(bounds), n)
			}
			prev := mn - 1
			for _, b := range bounds {
				if b <= prev {
					t.Fatalf("%s: boundaries not strictly ascending: %v", name, bounds)
				}
				if b < mn || b >= mx {
					t.Fatalf("%s: boundary %d outside [%d, %d)", name, b, mn, mx)
				}
				prev = b
			}
		}
	}
}
