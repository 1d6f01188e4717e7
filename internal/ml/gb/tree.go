package gb

import "qfe/internal/parallel"

// node is one node of a tree being grown. Leaves carry Value; internal nodes
// send x[Feature] <= Threshold left, which for a training row is its code of
// Feature <= bin, the bin Threshold is the upper edge of. The JSON tags are
// format 1's, which stored these arenas (flat.go decodes it); bin is the
// fit's alone.
type node struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t"`
	Left      int32   `json:"l"`
	Right     int32   `json:"r"`
	Leaf      bool    `json:"leaf"`
	bin       uint8   // in the padding after Leaf: the arena stays 40 bytes a node
	Value     float64 `json:"v"`
}

// tree is the fit's working arena for one regression tree, rooted at index
// 0: grow appends to it, boost walks it for the rows the tree was not grown
// on, and Train packs it onto the flat forest and drops it.
type tree struct {
	Nodes []node `json:"nodes"`
}

// builder holds the per-training-run state shared by all trees: the bin codes
// of the training rows, which are all the fit reads of them, the same codes in
// the sparse form split search walks, the buffers a tree is grown in, and the
// resolved worker count.
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
	cfg     Config
	n, d    int // training rows, features
	workers int

	codes    []uint8      // feature-major: codes[f*n+r] is row r's bin of feature f
	cellLo   []int        // per feature f: its cells are cellLo[f] .. cellLo[f+1]-1
	cellEdge []float64    // per cell: inclusive upper edge of its bin, the threshold of a split after it
	cellBin  []uint8      // per cell: its bin; a split after it sends the codes <= it left
	free     [][]histCell // zeroed per-cell accumulators no node holds
	made     int          // histograms allocated so far, free or held: fewer than MaxDepth
	ranges   []cellRange  // the features in contiguous blocks, each walked by one worker
	entries  int          // (row, cell) pairs over all training rows: the additions one pass over them costs
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

// splitResult is a split after one cell of a feature: the cell's edge and
// bin, and the gain, which is 0 where no split was found.
type splitResult struct {
	thr  float64
	bin  uint8
	gain float64
}

// fanOutEntries is the least work — histogram additions, entries of the
// rows to accumulate — for which waking a second worker pays; below it a
// histogram is accumulated on the calling goroutine. Measured, not
// configured: see DESIGN.md, "Sparse histograms".
const fanOutEntries = 1 << 18

// newBuilder bins every feature once; bins are reused by every tree of the
// boosting run (the histogram trick). It works in two sweeps, each parallel
// over disjoint features: the first bins a feature into its column of a
// feature-major code matrix and notes which bins are occupied; the second,
// once cells are numbered and the features are cut into ranges of about
// equal entry count, turns each range's columns into per-row cell lists. The
// code matrix is kept: grow partitions a node's rows on it, and boost walks
// the rows a tree was not grown on through it.
func newBuilder(X [][]float64, cfg Config) *builder {
	n, d := len(X), len(X[0])
	b := &builder{cfg: cfg, n: n, d: d, workers: parallel.Workers(cfg.Workers), codes: make([]uint8, n*d)}

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
			col := b.codes[f*n : (f+1)*n]
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
		b.cellBin = append(b.cellBin, cellBin[f]...)
		b.entries += featEntries[f]
	}

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
			for r, c := range b.codes[f*n : (f+1)*n] {
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
			for r, c := range b.codes[f*n : (f+1)*n] {
				if c < last[f] {
					rg.ids[next[r]] = cellOf[c]
					next[r]++
				}
			}
		}
	})
	return b
}

// binCode returns v's bin among bins uniform bins of width from mn: the k
// whose edges hold mn+width*k < v <= mn+width*(k+1), with the first bin
// unbounded below and the last above. The upper edge is the threshold a split
// after bin k is priced at and Predict sends X <= thr left, so a value on an
// edge belongs to the bin below it, not the one the quotient floors to: then
// code <= k exactly when X <= thr, and the fit partitions on codes. The
// quotient lands at most one bin off at an edge, so one compare each way,
// against the edge expression newBuilder uses, settles it.
func binCode(v, mn, width float64, bins int) uint8 {
	if bins == 1 || width == 0 {
		return 0
	}
	k := min(max(int((v-mn)/width), 0), bins-1)
	if k > 0 && v <= mn+width*float64(k) {
		k--
	} else if k < bins-1 && v > mn+width*float64(k+1) {
		k++
	}
	return uint8(k)
}

// searches reports whether a node of n rows at depth looks for a split.
func (b *builder) searches(n, depth int) bool {
	return depth < b.cfg.MaxDepth && n >= 2*b.cfg.MinSamplesLeaf
}

// takeHist returns a zeroed histogram, recycle takes one back from the node
// that held it: a tree has fewer than MaxDepth in use at any time.
func (b *builder) takeHist() []histCell {
	if k := len(b.free) - 1; k >= 0 {
		h := b.free[k]
		b.free = b.free[:k]
		return h
	}
	b.made++
	return make([]histCell, len(b.cellEdge))
}

func (b *builder) recycle(h []histCell) {
	if h != nil {
		clear(h)
		b.free = append(b.free, h)
	}
}

// grow appends the subtree for rows to t and returns its root index. rows is
// a stretch of the tree's rows that the node owns and partitions in place, the
// left child's rows first. hist holds the node's cells over rows and is the
// node's to recycle or hand down; it is nil when the node does not search
// one. A leaf advances pred for the rows it owns by its shrunken value, the
// float a walk of the finished tree adds.
func (b *builder) grow(t *tree, rows, cols []int, resid, pred []float64, depth int, hist []histCell) int32 {
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, node{})

	var sum float64
	for _, r := range rows {
		sum += resid[r]
	}

	var feat, nl int
	var split splitResult
	var ok bool
	if b.searches(len(rows), depth) {
		feat, split, ok = b.bestSplit(cols, len(rows), sum, hist)
	}
	if ok {
		col := b.codes[feat*b.n : (feat+1)*b.n]
		for i, r := range rows {
			if col[r] <= split.bin {
				rows[i], rows[nl] = rows[nl], r
				nl++
			}
		}
		ok = nl >= b.cfg.MinSamplesLeaf && len(rows)-nl >= b.cfg.MinSamplesLeaf
	}
	if !ok {
		b.recycle(hist)
		mean := sum / float64(len(rows))
		t.Nodes[idx] = node{Leaf: true, Value: mean}
		step := b.cfg.LearningRate * mean
		for _, r := range rows {
			pred[r] += step
		}
		return idx
	}

	hl, hr := b.childHists(hist, rows, nl, resid, depth+1)
	l := b.grow(t, rows[:nl], cols, resid, pred, depth+1, hl)
	r := b.grow(t, rows[nl:], cols, resid, pred, depth+1, hr)
	t.Nodes[idx] = node{Feature: feat, Threshold: split.thr, Left: l, Right: r, bin: split.bin}
	return idx
}

// leaf returns the value of the leaf training row r reaches in t, walked on
// the row's codes: the float Predict reads off the packed tree for the row.
func (b *builder) leaf(t *tree, r int) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Leaf {
			return n.Value
		}
		if b.codes[n.Feature*b.n+r] <= n.bin {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// childHists turns the histogram of a node split after its first nl rows
// into those of its children, which sit at depth. Only the smaller child's
// rows are walked: sums of residuals are exact, so the parent's cells less
// the smaller child's are, to the bit, what a pass over the larger child's
// rows would leave, and hist becomes the larger child's in place. A child
// that will not search a histogram gets none.
func (b *builder) childHists(hist []histCell, rows []int, nl int, resid []float64, depth int) (hl, hr []histCell) {
	small, large := rows[:nl], rows[nl:]
	if len(small) > len(large) {
		small, large = large, small
	}
	if hist == nil || !b.searches(len(large), depth) {
		b.recycle(hist)
		return nil, nil
	}
	hs := b.takeHist()
	b.accumulate(hs, small, resid)
	for c := range hist {
		hist[c].sum -= hs[c].sum
		hist[c].cnt -= hs[c].cnt
	}
	if !b.searches(len(small), depth) {
		b.recycle(hs)
		hs = nil
	}
	if len(small) == nl {
		return hs, hist
	}
	return hist, hs
}

// bestSplit scores every candidate feature's cells from the node's finished
// histogram and returns the variance-reduction-maximizing split. The winner
// is reduced in cols order with a strictly-greater comparison, so ties break
// toward the earlier feature.
func (b *builder) bestSplit(cols []int, total int, sumTotal float64, hist []histCell) (feat int, best splitResult, ok bool) {
	parentScore := sumTotal * sumTotal / float64(total)
	for _, f := range cols {
		if res := b.scanCells(hist, f, total, sumTotal, parentScore); res.gain > best.gain {
			feat, best = f, res
		}
	}
	return feat, best, best.gain > 1e-12
}

// accumulate adds rows to hist, one worker per range, so no two write the
// same cell — or, near the leaves, where the rows hold too few entries to
// repay waking a second goroutine (the mean row stands in for the node's),
// one after the other. A cell receives exactly the rows in its bin, an
// unoccupied bin would have stayed at zero and the last bin is never an
// operand of a gain, so every gain is the float a pass over all bins yields.
func (b *builder) accumulate(hist []histCell, rows []int, resid []float64) {
	workers := b.workers
	if len(rows)*b.entries/b.n < fanOutEntries {
		workers = 1
	}
	parallel.Do(len(b.ranges), workers, func(i int) {
		rg := &b.ranges[i]
		for _, r := range rows {
			g := resid[r]
			for _, c := range rg.ids[rg.start[r]:rg.start[r+1]] {
				h := &hist[c]
				h.sum += g
				h.cnt++
			}
		}
	})
}

// scanCells picks the best split among feature f's cells from their
// finished accumulators in hist. The gain of a split is
//
//	sumL^2/cntL + sumR^2/cntR - sumTotal^2/cntTotal,
//
// the standard decomposition of squared-error reduction.
func (b *builder) scanCells(hist []histCell, f, total int, sumTotal, parentScore float64) splitResult {
	var best splitResult
	var accSum float64
	accCnt := 0
	for c := b.cellLo[f]; c < b.cellLo[f+1]; c++ {
		accSum += hist[c].sum
		accCnt += int(hist[c].cnt)
		// A cell none of the node's rows fall in leaves both sides as they
		// were at the edge before it: the gain is the same float, which
		// never beats itself.
		if hist[c].cnt == 0 || accCnt < b.cfg.MinSamplesLeaf || total-accCnt < b.cfg.MinSamplesLeaf {
			continue
		}
		rSum := sumTotal - accSum
		score := accSum*accSum/float64(accCnt) + rSum*rSum/float64(total-accCnt)
		if g := score - parentScore; g > best.gain {
			best = splitResult{thr: b.cellEdge[c], bin: b.cellBin[c], gain: g}
		}
	}
	return best
}
