package gb

import (
	"math"
	"sort"

	"qfe/internal/parallel"
)

// builder holds the per-training-run state shared by all trees: the binned
// feature matrix for histogram split search and the resolved worker count.
type builder struct {
	X       [][]float64
	cfg     Config
	n       int         // training rows
	codes   []uint8     // bin codes, feature-major: feature f's are codes[f*n : (f+1)*n]
	edges   [][]float64 // per feature: upper edge of each bin except the last
	allCols []int
	workers int
}

// splitResult is one feature's best split, computed independently so the
// per-feature search can fan out across workers. The cross-feature winner
// is chosen afterwards in feature order, which keeps the parallel search
// bit-identical to the sequential scan.
type splitResult struct {
	thr  float64
	gain float64
	ok   bool
}

// newBuilder bins every feature once; bins are reused by every tree of the
// boosting run (the histogram trick). Binning is embarrassingly parallel
// across features: feature f writes only edges[f] and its own column of
// codes, so the parallel sweep is race-free and order-independent. Codes are
// stored feature-major because split search reads them that way — one
// feature's codes for the rows of a node — and a column of n bytes stays in
// cache across the nodes of a tree where a stride of d bytes would not.
func newBuilder(X [][]float64, cfg Config) *builder {
	n, d := len(X), len(X[0])
	b := &builder{X: X, cfg: cfg, n: n, workers: parallel.Workers(cfg.Workers)}
	b.allCols = make([]int, d)
	for i := range b.allCols {
		b.allCols[i] = i
	}
	b.codes = make([]uint8, n*d)
	b.edges = make([][]float64, d)
	parallel.DoChunks(d, b.workers, func(flo, fhi int) {
		for f := flo; f < fhi; f++ {
			mn, mx := X[0][f], X[0][f]
			for i := 1; i < n; i++ {
				v := X[i][f]
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			bins := cfg.MaxBins
			if mx == mn {
				bins = 1
			}
			// Uniform bin edges over [mn, mx]: edges[k] is the inclusive
			// upper bound of bin k; the last bin is unbounded above.
			edges := make([]float64, bins-1)
			width := (mx - mn) / float64(bins)
			for k := 0; k < bins-1; k++ {
				edges[k] = mn + width*float64(k+1)
			}
			b.edges[f] = edges
			col := b.column(f)
			for i := 0; i < n; i++ {
				col[i] = binCode(X[i][f], mn, width, bins)
			}
		}
	})
	return b
}

// column returns feature f's bin codes, one per training row.
func (b *builder) column(f int) []uint8 {
	return b.codes[f*b.n : (f+1)*b.n : (f+1)*b.n]
}

func binCode(v, mn, width float64, bins int) uint8 {
	if bins == 1 || width == 0 {
		return 0
	}
	k := int((v - mn) / width)
	if k < 0 {
		k = 0
	}
	if k >= bins {
		k = bins - 1
	}
	return uint8(k)
}

// build grows one regression tree on the residuals, over the given row and
// column subsets.
func (b *builder) build(rows, cols []int, resid []float64) *tree {
	t := &tree{}
	b.grow(t, rows, cols, resid, 1)
	return t
}

// grow appends the subtree for rows to t and returns its root index.
func (b *builder) grow(t *tree, rows, cols []int, resid []float64, depth int) int32 {
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, node{})

	var sum float64
	for _, r := range rows {
		sum += resid[r]
	}
	mean := sum / float64(len(rows))

	if depth >= b.cfg.MaxDepth || len(rows) < 2*b.cfg.MinSamplesLeaf {
		t.Nodes[idx] = node{Leaf: true, Value: mean}
		return idx
	}

	feat, thr, gain, ok := b.bestSplit(rows, cols, resid, sum)
	if !ok || gain <= 1e-12 {
		t.Nodes[idx] = node{Leaf: true, Value: mean}
		return idx
	}

	left := make([]int, 0, len(rows)/2)
	right := make([]int, 0, len(rows)/2)
	for _, r := range rows {
		if b.X[r][feat] <= thr {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		t.Nodes[idx] = node{Leaf: true, Value: mean}
		return idx
	}

	l := b.grow(t, left, cols, resid, depth+1)
	r := b.grow(t, right, cols, resid, depth+1)
	t.Nodes[idx] = node{Feature: feat, Threshold: thr, Left: l, Right: r}
	return idx
}

// splitWorkers decides the fan-out for one node's split search: near the
// leaves the per-feature work is too small to amortize goroutine dispatch.
func (b *builder) splitWorkers(rows, cols []int) int {
	if len(rows)*len(cols) < 8192 {
		return 1
	}
	return b.workers
}

// bestSplit searches every candidate feature for the variance-reduction-
// maximizing split, fanning the per-feature searches (histogram build or
// exact threshold scan — each touching only its own hist buffers and
// results[ci] slot) across workers. The winner is then reduced in cols
// order with the same strictly-greater comparison the sequential scan
// used, so ties break toward the earlier feature and the chosen split is
// bit-identical for every worker count.
func (b *builder) bestSplit(rows, cols []int, resid []float64, sumTotal float64) (feat int, thr, gain float64, ok bool) {
	cnt := len(rows)
	parentScore := sumTotal * sumTotal / float64(cnt)
	results := make([]splitResult, len(cols))

	workers := b.splitWorkers(rows, cols)
	if b.cfg.ExactSplits {
		parallel.DoChunks(len(cols), workers, func(lo, hi int) {
			pairs := make([]splitPair, 0, cnt)
			for ci := lo; ci < hi; ci++ {
				results[ci] = b.exactFeatureSplit(rows, cols[ci], resid, sumTotal, parentScore, pairs)
			}
		})
	} else {
		parallel.DoChunks(len(cols), workers, func(lo, hi int) {
			h := new(histograms)
			ci := lo
			for ; ci+histWidth <= hi; ci += histWidth {
				b.histSplits(h, rows, (*[histWidth]int)(cols[ci:]), resid, sumTotal, parentScore, (*[histWidth]splitResult)(results[ci:]))
			}
			for ; ci < hi; ci++ {
				results[ci] = b.histFeatureSplit(h, rows, cols[ci], resid, sumTotal, parentScore)
			}
		})
	}

	for ci, res := range results {
		if res.ok && res.gain > gain {
			gain, feat, thr, ok = res.gain, cols[ci], res.thr, true
		}
	}
	return feat, thr, gain, ok
}

// histWidth is how many features one pass over a node's rows accumulates.
const histWidth = 4

// histograms is one worker's scratch for split search: per feature of a
// pass, the residual sum and row count of every bin. The arrays are 256 long
// whatever MaxBins is, so indexing one by a uint8 bin code needs no bounds
// check.
type histograms struct {
	sum [histWidth][256]float64
	cnt [histWidth][256]int32
}

// histSplits finds the best histogram split of histWidth features in one
// pass over rows. Most rows of a QFT feature fall in one bin, so a pass over
// a single feature is a chain of additions to one memory cell, each waiting
// for the store before it; with histWidth features the chains are
// independent and overlap. A feature's bins still receive its rows in input
// order and nothing else, so each histogram — and every gain, threshold and
// tie-break computed from it — is the float the one-feature pass produces.
func (b *builder) histSplits(h *histograms, rows []int, fs *[histWidth]int, resid []float64, sumTotal, parentScore float64, out *[histWidth]splitResult) {
	for k, f := range fs {
		nb := len(b.edges[f]) + 1
		clear(h.sum[k][:nb])
		clear(h.cnt[k][:nb])
	}
	c0, c1, c2, c3 := b.column(fs[0]), b.column(fs[1]), b.column(fs[2]), b.column(fs[3])
	s0, s1, s2, s3 := &h.sum[0], &h.sum[1], &h.sum[2], &h.sum[3]
	n0, n1, n2, n3 := &h.cnt[0], &h.cnt[1], &h.cnt[2], &h.cnt[3]
	for _, r := range rows {
		g := resid[r]
		s0[c0[r]] += g
		n0[c0[r]]++
		s1[c1[r]] += g
		n1[c1[r]]++
		s2[c2[r]] += g
		n2[c2[r]]++
		s3[c3[r]] += g
		n3[c3[r]]++
	}
	for k, f := range fs {
		out[k] = b.scanHistogram(&h.sum[k], &h.cnt[k], b.edges[f], len(rows), sumTotal, parentScore)
	}
}

// histFeatureSplit is histSplits for one feature: the remainder when the
// features of a worker's share do not divide by histWidth.
func (b *builder) histFeatureSplit(h *histograms, rows []int, f int, resid []float64, sumTotal, parentScore float64) splitResult {
	edges := b.edges[f]
	if len(edges) == 0 {
		return splitResult{} // constant feature
	}
	col, sum, cnt := b.column(f), &h.sum[0], &h.cnt[0]
	clear(sum[:len(edges)+1])
	clear(cnt[:len(edges)+1])
	for _, r := range rows {
		c := col[r]
		sum[c] += resid[r]
		cnt[c]++
	}
	return b.scanHistogram(sum, cnt, edges, len(rows), sumTotal, parentScore)
}

// scanHistogram picks the best threshold among a feature's bin edges from
// its finished histogram. The gain of a split is
//
//	sumL^2/cntL + sumR^2/cntR - sumTotal^2/cntTotal,
//
// the standard decomposition of squared-error reduction.
func (b *builder) scanHistogram(sum *[256]float64, cnt *[256]int32, edges []float64, total int, sumTotal, parentScore float64) splitResult {
	var best splitResult
	var accSum float64
	accCnt := 0
	for k, edge := range edges {
		accSum += sum[k]
		accCnt += int(cnt[k])
		// An empty bin leaves both sides as they were at the edge before
		// it: the gain is the same float, which never beats itself.
		if cnt[k] == 0 || accCnt < b.cfg.MinSamplesLeaf || total-accCnt < b.cfg.MinSamplesLeaf {
			continue
		}
		rSum := sumTotal - accSum
		score := accSum*accSum/float64(accCnt) + rSum*rSum/float64(total-accCnt)
		if g := score - parentScore; g > best.gain {
			best = splitResult{thr: edge, gain: g, ok: true}
		}
	}
	return best
}

// splitPair is one (value, residual) sample of the exact-split scan.
type splitPair struct {
	v, r float64
}

// exactFeatureSplit scans every distinct threshold of feature f — the slow
// reference implementation kept for the split-search ablation and for
// cross-checking the histogram path in tests. pairs is a reusable scratch
// buffer owned by the calling worker.
func (b *builder) exactFeatureSplit(rows []int, f int, resid []float64, sumTotal, parentScore float64, pairs []splitPair) splitResult {
	cnt := len(rows)
	pairs = pairs[:0]
	for _, r := range rows {
		pairs = append(pairs, splitPair{b.X[r][f], resid[r]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	var best splitResult
	var accSum float64
	for i := 0; i < cnt-1; i++ {
		accSum += pairs[i].r
		if pairs[i].v == pairs[i+1].v {
			continue // can only split between distinct values
		}
		accCnt := i + 1
		if accCnt < b.cfg.MinSamplesLeaf || cnt-accCnt < b.cfg.MinSamplesLeaf {
			continue
		}
		rSum := sumTotal - accSum
		score := accSum*accSum/float64(accCnt) + rSum*rSum/float64(cnt-accCnt)
		if g := score - parentScore; g > best.gain {
			// Split midway between the neighboring distinct values so
			// prediction-time comparisons are robust.
			mid := pairs[i].v + (pairs[i+1].v-pairs[i].v)/2
			if math.IsInf(mid, 0) {
				mid = pairs[i].v
			}
			best = splitResult{thr: mid, gain: g, ok: true}
		}
	}
	return best
}
