// Package histogram implements the attribute-domain partitioning schemes
// behind Universal Conjunction Encoding's buckets. The paper's Algorithm 1
// partitions each domain uniformly (equi-width) and notes that "one could
// also apply sophisticated partitioning techniques from the field of
// histograms, like v-optimal [23] and q-optimal [18] partitioning"
// (Section 3.2). This package provides those alternatives:
//
//   - EquiWidth — uniform value ranges (the paper's default);
//   - EquiDepth — boundaries at frequency quantiles, so every partition
//     covers roughly the same number of rows;
//   - VOptimal — boundaries minimizing the total within-partition frequency
//     variance (Poosala et al. [23]), computed by dynamic programming over
//     a micro-bin pre-aggregation.
//
// All partitioners return the inclusive upper boundaries of every partition
// except the last (which is implied by the attribute maximum), the form
// core.AttrMeta consumes; PartitionedMeta builds a table's metadata from
// them.
package histogram

import (
	"fmt"
	"sort"
)

// EquiWidth returns the boundaries of n uniform partitions of [min, max],
// matching the index formula of Algorithm 1: value v belongs to partition
// floor((v-min) / (max-min+1) * n).
func EquiWidth(min, max int64, n int) ([]int64, error) {
	if err := validate(min, max, n); err != nil {
		return nil, err
	}
	domain := max - min + 1
	if int64(n) > domain {
		// At most one partition per distinct value.
		n = int(domain)
	}
	bounds := make([]int64, 0, n-1)
	for k := 1; k < n; k++ {
		// Partition k-1 covers values with index < k, i.e. up to the
		// largest v with (v-min)*n/domain < k.
		hi := min + ceilDiv(int64(k)*domain, int64(n)) - 1
		bounds = append(bounds, hi)
	}
	return bounds, nil
}

// EquiDepth returns boundaries so each partition holds roughly len(vals)/n
// of the data. Repeated heavy values never split across partitions; when
// the data has fewer distinct values than n, every distinct value gets its
// own partition and the remaining boundary slots collapse.
func EquiDepth(vals []int64, n int) ([]int64, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("histogram: no values")
	}
	min, max := minMax(vals)
	if err := validate(min, max, n); err != nil {
		return nil, err
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	bounds := make([]int64, 0, n-1)
	target := float64(len(sorted)) / float64(n)
	for k := 1; k < n; k++ {
		pos := int(float64(k) * target)
		if pos >= len(sorted) {
			pos = len(sorted) - 1
		}
		b := sorted[pos]
		// A boundary is the inclusive upper end of a partition; it must
		// advance past the previous boundary and stay below max.
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			continue
		}
		if b >= max {
			break
		}
		bounds = append(bounds, b)
	}
	return bounds, nil
}

// VOptimal returns boundaries minimizing the sum of within-partition
// frequency variances (the SSE of approximating each partition's
// frequencies by their mean). The domain is first compressed into at most
// microBins equal-width micro-bins (microBins <= 0 selects 256), then the
// classic O(microBins² · n) dynamic program runs over the compressed
// frequency vector.
func VOptimal(vals []int64, n, microBins int) ([]int64, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("histogram: no values")
	}
	if microBins <= 0 {
		microBins = 256
	}
	min, max := minMax(vals)
	if err := validate(min, max, n); err != nil {
		return nil, err
	}
	domain := max - min + 1
	m := microBins
	if int64(m) > domain {
		m = int(domain)
	}
	if n >= m {
		// One partition per micro-bin: fall back to equi-width at m.
		return EquiWidth(min, max, n)
	}

	// Frequency per micro-bin.
	freq := make([]float64, m)
	for _, v := range vals {
		idx := (v - min) * int64(m) / domain
		freq[idx]++
	}
	// Prefix sums for O(1) segment SSE: sse(i..j) = sumsq - sum^2/len.
	prefix := make([]float64, m+1)
	prefixSq := make([]float64, m+1)
	for i, f := range freq {
		prefix[i+1] = prefix[i] + f
		prefixSq[i+1] = prefixSq[i] + f*f
	}
	sse := func(i, j int) float64 { // micro-bins [i, j] inclusive
		cnt := float64(j - i + 1)
		sum := prefix[j+1] - prefix[i]
		return prefixSq[j+1] - prefixSq[i] - sum*sum/cnt
	}

	// dp[k][j]: min SSE of splitting micro-bins [0, j] into k partitions.
	const inf = 1e300
	dp := make([][]float64, n+1)
	cut := make([][]int, n+1)
	for k := range dp {
		dp[k] = make([]float64, m)
		cut[k] = make([]int, m)
		for j := range dp[k] {
			dp[k][j] = inf
		}
	}
	for j := 0; j < m; j++ {
		dp[1][j] = sse(0, j)
	}
	for k := 2; k <= n; k++ {
		for j := k - 1; j < m; j++ {
			for i := k - 2; i < j; i++ {
				if c := dp[k-1][i] + sse(i+1, j); c < dp[k][j] {
					dp[k][j] = c
					cut[k][j] = i
				}
			}
		}
	}

	// Reconstruct the micro-bin cuts, then convert to value boundaries.
	cuts := make([]int, 0, n-1)
	j := m - 1
	for k := n; k > 1; k-- {
		i := cut[k][j]
		cuts = append(cuts, i)
		j = i
	}
	sort.Ints(cuts)
	bounds := make([]int64, 0, len(cuts))
	for _, c := range cuts {
		// Micro-bin c covers values up to this inclusive bound.
		hi := min + ceilDiv(int64(c+1)*domain, int64(m)) - 1
		if len(bounds) > 0 && hi <= bounds[len(bounds)-1] {
			continue
		}
		if hi >= max {
			break
		}
		bounds = append(bounds, hi)
	}
	return bounds, nil
}

func validate(min, max int64, n int) error {
	if max < min {
		return fmt.Errorf("histogram: max %d < min %d", max, min)
	}
	if n < 1 {
		return fmt.Errorf("histogram: n = %d, want >= 1", n)
	}
	return nil
}

func minMax(vals []int64) (mn, mx int64) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}
