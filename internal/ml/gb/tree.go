package gb

import (
	"math"
	"sort"

	"qfe/internal/parallel"
)

// builder holds the per-training-run state shared by all trees: the binned
// features in the sparse form split search walks, the buffers a tree is grown
// in, and the resolved worker count.
//
// A cell is one bin of one feature that at least one training row falls in
// and that lies below the feature's last bin. The last bin is left out
// because no split reads it: a threshold is the upper edge of a bin below
// the last, and the gain at it is computed from the sums of the bins up to
// it and the node's total. Feature vectors that start from all ones and
// lower the entries a predicate restricts (the range, conjunctive and complex
// QFTs) put most of their mass exactly there. Cells are numbered by feature,
// then by bin, so a feature's cells are consecutive and ascending.
type builder struct {
	X       [][]float64
	cfg     Config
	n       int // training rows
	allCols []int
	workers int

	cellLo   []int         // per feature f: its cells are cellLo[f] .. cellLo[f+1]-1
	cellEdge []float64     // per cell: inclusive upper edge of its bin, the threshold of a split after it
	hist     []histCell    // per cell: the current node's accumulators; all zero between nodes
	ranges   []cellRange   // the features in contiguous blocks, each walked by one worker
	entries  int           // (row, cell) pairs over all training rows: the additions one pass over them costs
	sampled  []bool        // per feature: whether the tree being built may split on it
	results  []splitResult // per feature: its best split at the current node
	rowBuf   []int         // the rows of the tree being built; a node owns a contiguous stretch
	rightBuf []int         // partition scratch: the rows going right, until they are copied back
}

// histCell accumulates one cell over the rows of a node.
type histCell struct {
	sum float64 // of the residuals
	cnt int32   // of the rows; bounded by the training set, which a slice indexes
}

// cellRange is the sparse form of a contiguous block of features: for every
// training row, the cells it falls in among those features, ascending.
type cellRange struct {
	flo, fhi int      // features [flo, fhi)
	start    []int    // row r's cells are ids[start[r]:start[r+1]]
	ids      []uint32 // cell ids; maxFeatures keeps them in range
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

// fanOutEntries is the least work — histogram additions, entries of the
// node's rows — for which waking a second worker pays; below it a node's
// split search runs on the calling goroutine. Measured, not configured: see
// DESIGN.md, "Sparse histograms".
const fanOutEntries = 1 << 18

// newBuilder bins every feature once; bins are reused by every tree of the
// boosting run (the histogram trick). It works in two sweeps, each parallel
// over disjoint features: the first bins a feature into its column of a
// feature-major code matrix and notes which bins are occupied; the second,
// once cells are numbered and the features are cut into ranges of about
// equal entry count, turns each range's columns into per-row cell lists. The
// code matrix is garbage after that.
func newBuilder(X [][]float64, cfg Config) *builder {
	n, d := len(X), len(X[0])
	b := &builder{X: X, cfg: cfg, n: n, workers: parallel.Workers(cfg.Workers)}
	b.allCols = make([]int, d)
	for i := range b.allCols {
		b.allCols[i] = i
	}
	b.sampled = make([]bool, d)
	b.results = make([]splitResult, d)
	b.rowBuf = make([]int, n)
	b.rightBuf = make([]int, n)

	codes := make([]uint8, n*d)
	last := make([]uint8, d)      // per feature: the code of its last bin
	edges := make([][]float64, d) // per feature: the edges of its cells
	cellBin := make([][]uint8, d) // per feature: the bins of its cells
	featEntries := make([]int, d) // per feature: rows below the last bin
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
			// Uniform bins over [mn, mx]: bin k's inclusive upper edge is
			// mn + width*(k+1); the last bin is unbounded above.
			width := (mx - mn) / float64(bins)
			col := codes[f*n : (f+1)*n]
			var rowsIn [256]int
			for i := range col {
				col[i] = binCode(X[i][f], mn, width, bins)
				rowsIn[col[i]]++
			}
			last[f] = uint8(bins - 1)
			featEntries[f] = n - rowsIn[bins-1]
			for k := 0; k < bins-1; k++ {
				if rowsIn[k] > 0 {
					cellBin[f] = append(cellBin[f], uint8(k))
					edges[f] = append(edges[f], mn+width*float64(k+1))
				}
			}
		}
	})

	b.cellLo = make([]int, d+1)
	for f := 0; f < d; f++ {
		b.cellLo[f+1] = b.cellLo[f] + len(edges[f])
		b.cellEdge = append(b.cellEdge, edges[f]...)
		b.entries += featEntries[f]
	}
	b.hist = make([]histCell, len(b.cellEdge))

	// One range per worker: range i ends at the first feature that brings
	// the running entry count to (i+1)/workers of the total, so the ranges
	// cost about the same to walk however unevenly the features are filled.
	b.ranges = make([]cellRange, b.workers)
	for i, f, acc := 0, 0, 0; i < len(b.ranges); i++ {
		rg := &b.ranges[i]
		rg.flo = f
		for ; f < d && (i == len(b.ranges)-1 || acc*len(b.ranges) < (i+1)*b.entries); f++ {
			acc += featEntries[f]
		}
		rg.fhi = f
	}
	parallel.Do(len(b.ranges), b.workers, func(i int) {
		rg := &b.ranges[i]
		rg.start = make([]int, n+1)
		for f := rg.flo; f < rg.fhi; f++ {
			for r, c := range codes[f*n : (f+1)*n] {
				if c < last[f] {
					rg.start[r+1]++
				}
			}
		}
		for r := 0; r < n; r++ {
			rg.start[r+1] += rg.start[r]
		}
		rg.ids = make([]uint32, rg.start[n])
		next := append([]int(nil), rg.start[:n]...)
		for f := rg.flo; f < rg.fhi; f++ {
			var cellOf [256]uint32
			for j, k := range cellBin[f] {
				cellOf[k] = uint32(b.cellLo[f] + j)
			}
			for r, c := range codes[f*n : (f+1)*n] {
				if c < last[f] {
					rg.ids[next[r]] = cellOf[c]
					next[r]++
				}
			}
		}
	})
	return b
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
	clear(b.sampled)
	for _, f := range cols {
		b.sampled[f] = true
	}
	t := &tree{}
	b.grow(t, b.rowBuf[:copy(b.rowBuf, rows)], cols, resid, 1)
	return t
}

// grow appends the subtree for rows to t and returns its root index. rows is
// a stretch of b.rowBuf that the node owns: it is partitioned in place, the
// left child's rows first, both in their input order — the order every sum
// below is taken in.
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

	nl, nr := 0, 0
	for _, r := range rows {
		if b.X[r][feat] <= thr {
			rows[nl] = r
			nl++
		} else {
			b.rightBuf[nr] = r
			nr++
		}
	}
	copy(rows[nl:], b.rightBuf[:nr])
	if nl < b.cfg.MinSamplesLeaf || nr < b.cfg.MinSamplesLeaf {
		t.Nodes[idx] = node{Leaf: true, Value: mean}
		return idx
	}

	l := b.grow(t, rows[:nl], cols, resid, depth+1)
	r := b.grow(t, rows[nl:], cols, resid, depth+1)
	t.Nodes[idx] = node{Feature: feat, Threshold: thr, Left: l, Right: r}
	return idx
}

// bestSplit searches every candidate feature for the variance-reduction-
// maximizing split and leaves each one's best in b.results. The search fans
// out across workers over disjoint features — ranges of them for the
// histogram search, chunks of cols for the exact scan — so no two workers
// write the same accumulator or result. The winner is then reduced in cols
// order with the same strictly-greater comparison the sequential scan used,
// so ties break toward the earlier feature and the chosen split is
// bit-identical for every worker count.
func (b *builder) bestSplit(rows, cols []int, resid []float64, sumTotal float64) (feat int, thr, gain float64, ok bool) {
	parentScore := sumTotal * sumTotal / float64(len(rows))
	if b.cfg.ExactSplits {
		workers := b.workers
		if len(rows)*len(cols) < 8192 {
			workers = 1 // too little per feature to amortize goroutine dispatch
		}
		parallel.DoChunks(len(cols), workers, func(lo, hi int) {
			pairs := make([]splitPair, 0, len(rows))
			for _, f := range cols[lo:hi] {
				b.results[f] = b.exactFeatureSplit(rows, f, resid, sumTotal, parentScore, pairs)
			}
		})
	} else {
		b.cellSplits(rows, resid, sumTotal, parentScore)
	}
	for _, f := range cols {
		if res := b.results[f]; res.ok && res.gain > gain {
			gain, feat, thr, ok = res.gain, f, res.thr, true
		}
	}
	return feat, thr, gain, ok
}

// cellSplits finds the best histogram split of every sampled feature, one
// worker per range. Near the leaves a node's rows hold too few entries to
// repay waking a second goroutine (the mean row stands in for the node's),
// and the ranges are walked in turn without so much as a closure.
func (b *builder) cellSplits(rows []int, resid []float64, sumTotal, parentScore float64) {
	if b.workers == 1 || len(rows)*b.entries/b.n < fanOutEntries {
		for i := range b.ranges {
			b.rangeSplits(&b.ranges[i], rows, resid, sumTotal, parentScore)
		}
		return
	}
	parallel.Do(len(b.ranges), b.workers, func(i int) {
		b.rangeSplits(&b.ranges[i], rows, resid, sumTotal, parentScore)
	})
}

// rangeSplits accumulates the cells of one range over the node's rows in one
// pass, scores the range's sampled features and zeroes the accumulators
// again. A cell receives exactly the rows that fall in its bin, in input
// order — what a dense histogram's bin receives — an unoccupied bin would
// have stayed at zero, and the last bin is never an operand of a gain, so
// every gain and threshold is the float a pass over all bins produces.
func (b *builder) rangeSplits(rg *cellRange, rows []int, resid []float64, sumTotal, parentScore float64) {
	hist := b.hist
	for _, r := range rows {
		g := resid[r]
		for _, c := range rg.ids[rg.start[r]:rg.start[r+1]] {
			h := &hist[c]
			h.sum += g
			h.cnt++
		}
	}
	for f := rg.flo; f < rg.fhi; f++ {
		if b.sampled[f] {
			lo, hi := b.cellLo[f], b.cellLo[f+1]
			b.results[f] = b.scanCells(hist[lo:hi], b.cellEdge[lo:hi], len(rows), sumTotal, parentScore)
		}
	}
	clear(hist[b.cellLo[rg.flo]:b.cellLo[rg.fhi]])
}

// scanCells picks the best threshold among a feature's cell edges from its
// finished accumulators. The gain of a split is
//
//	sumL^2/cntL + sumR^2/cntR - sumTotal^2/cntTotal,
//
// the standard decomposition of squared-error reduction.
func (b *builder) scanCells(cells []histCell, edges []float64, total int, sumTotal, parentScore float64) splitResult {
	var best splitResult
	var accSum float64
	accCnt := 0
	for k, c := range cells {
		accSum += c.sum
		accCnt += int(c.cnt)
		// A cell none of the node's rows fall in leaves both sides as they
		// were at the edge before it: the gain is the same float, which
		// never beats itself.
		if c.cnt == 0 || accCnt < b.cfg.MinSamplesLeaf || total-accCnt < b.cfg.MinSamplesLeaf {
			continue
		}
		rSum := sumTotal - accSum
		score := accSum*accSum/float64(accCnt) + rSum*rSum/float64(total-accCnt)
		if g := score - parentScore; g > best.gain {
			best = splitResult{thr: edges[k], gain: g, ok: true}
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
