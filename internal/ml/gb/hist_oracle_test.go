package gb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleBuilder is the dense histogram split search the sparse one replaced:
// a bin code for every row and feature, one feature accumulated per pass over
// the node's rows into all of its bins — the last and the empty ones too —
// every bin edge scored, on one goroutine, every node from scratch: no
// histogram is derived from another. oracleTrain drives it through the
// boosting loop Train had then — every row walks every finished tree — on
// residuals rounded to the stage's grid as Train's are.
type oracleBuilder struct {
	X     [][]float64
	cfg   Config
	n, d  int
	codes []uint8 // codes[i*d+f]
	edges [][]float64
}

func newOracleBuilder(X [][]float64, cfg Config) *oracleBuilder {
	n, d := len(X), len(X[0])
	b := &oracleBuilder{X: X, cfg: cfg, n: n, d: d, codes: make([]uint8, n*d), edges: make([][]float64, d)}
	for f := 0; f < d; f++ {
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
		edges := make([]float64, bins-1)
		width := (mx - mn) / float64(bins)
		for k := range edges {
			edges[k] = mn + width*float64(k+1)
		}
		b.edges[f] = edges
		for i := 0; i < n; i++ {
			b.codes[i*d+f] = binCode(X[i][f], mn, width, bins)
		}
	}
	return b
}

func (b *oracleBuilder) grow(t *tree, rows, cols []int, resid []float64, depth int) int32 {
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
	var left, right []int
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

func (b *oracleBuilder) bestSplit(rows, cols []int, resid []float64, sumTotal float64) (feat int, thr, gain float64, ok bool) {
	parentScore := sumTotal * sumTotal / float64(len(rows))
	histSum := make([]float64, b.cfg.MaxBins)
	histCnt := make([]int, b.cfg.MaxBins)
	for _, f := range cols {
		res := b.histFeatureSplit(rows, f, resid, sumTotal, parentScore, histSum, histCnt)
		if res.gain > gain {
			gain, feat, thr, ok = res.gain, f, res.thr, true
		}
	}
	return feat, thr, gain, ok
}

func (b *oracleBuilder) histFeatureSplit(rows []int, f int, resid []float64, sumTotal, parentScore float64, histSum []float64, histCnt []int) splitResult {
	edges := b.edges[f]
	if len(edges) == 0 {
		return splitResult{} // constant feature
	}
	cnt := len(rows)
	nb := len(edges) + 1
	for k := 0; k < nb; k++ {
		histSum[k] = 0
		histCnt[k] = 0
	}
	for _, r := range rows {
		c := b.codes[r*b.d+f]
		histSum[c] += resid[r]
		histCnt[c]++
	}
	var best splitResult
	var accSum float64
	accCnt := 0
	for k := 0; k < nb-1; k++ {
		accSum += histSum[k]
		accCnt += histCnt[k]
		if accCnt < b.cfg.MinSamplesLeaf || cnt-accCnt < b.cfg.MinSamplesLeaf {
			continue
		}
		rSum := sumTotal - accSum
		score := accSum*accSum/float64(accCnt) + rSum*rSum/float64(cnt-accCnt)
		if g := score - parentScore; g > best.gain {
			best = splitResult{thr: edges[k], bin: uint8(k), gain: g}
		}
	}
	return best
}

func oracleTrain(X [][]float64, y []float64, cfg Config) *Model {
	n, d := len(X), len(X[0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, Dim: d}
	var sum float64
	for _, v := range y {
		sum += v
	}
	m.Base = sum / float64(n)
	b := newOracleBuilder(X, cfg)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.Base
	}
	resid := make([]float64, n)
	for t := 0; t < cfg.NumTrees; t++ {
		if err := residuals(resid, y, pred); err != nil {
			panic(err)
		}
		rows := sampleInts(rng, n, n) // all rows, in order; draws nothing
		if cfg.SubsampleRows < 1 {
			rows = sampleInts(rng, n, int(math.Ceil(cfg.SubsampleRows*float64(n))))
		}
		cols := sampleInts(rng, d, d)
		if cfg.SubsampleCols < 1 {
			cols = sampleInts(rng, d, int(math.Ceil(cfg.SubsampleCols*float64(d))))
		}
		tr := &tree{}
		b.grow(tr, rows, cols, resid, 1)
		if err := m.flat.appendTree(tr); err != nil {
			panic(err)
		}
		for i := range pred {
			pred[i] += cfg.LearningRate * tr.predict(X[i])
		}
	}
	return m
}

// qftLike synthesises feature vectors shaped like the complex QFT's of the
// daemon's training set (measured: 408 columns, none constant, three
// distinct values in a typical one, about four rows in five on the modal
// value): a column is 1 where the query leaves that slice of the attribute's
// domain unrestricted, 0 where it excludes it, and a fraction where a
// predicate cuts through it. One bin of each histogram therefore takes most
// of a node's rows.
func qftLike(rng *rand.Rand, n, d int) ([][]float64, []float64) {
	depart := make([]float64, d)
	for f := range depart {
		depart[f] = 0.15 + 0.1*rng.Float64()
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for f := range row {
			row[f] = 1
			if rng.Float64() < depart[f] {
				switch rng.Intn(10) {
				case 0:
					row[f] = rng.Float64()
				case 1, 2, 3:
					row[f] = 0.5
				default:
					row[f] = 0
				}
			}
		}
		X[i] = row
		y[i] = 4*row[0] - 3*row[1%d]*row[2%d] + row[d-1] + 0.1*rng.NormFloat64()
	}
	return X, y
}

// withConstantColumn makes column f of X constant: a feature with one bin,
// which is its last, and so no cell at all.
func withConstantColumn(X [][]float64, f int) {
	for i := range X {
		X[i][f] = 1
	}
}

// oracleCase is one input of the differential tests below.
type oracleCase struct {
	name string
	X    [][]float64
	y    []float64
	cfg  Config
}

// oracleCases spans what the sparse search and the partition on codes must
// not get wrong: where the rows of a column sit relative to its last bin
// (nearly all in it, as in the QFTs that start from ones; spread evenly;
// nearly all in the first bin, as in the simple QFT; all in it but one; all
// in it), values on bin edges, some of them not binary fractions, how many
// cells there are (MaxBins 2 makes one per feature, MaxBins 256 over 300
// dense features more than a uint16 could number), whether a tree samples its
// columns, and whether a node is large enough to be searched by several
// goroutines.
func oracleCases(t testing.TB) []oracleCase {
	small := DefaultConfig()
	small.NumTrees = 6

	var cases []oracleCase
	add := func(name string, X [][]float64, y []float64, edit func(*Config)) {
		cfg := small
		cfg.Seed = int64(len(cases) + 1)
		if edit != nil {
			edit(&cfg)
		}
		cases = append(cases, oracleCase{name, X, y, cfg})
	}

	for _, bins := range []int{2, 64, 256} {
		X, y := qftLike(rand.New(rand.NewSource(int64(bins))), 700, 23)
		withConstantColumn(X, 5)
		withConstantColumn(X, 22)
		add(fmt.Sprintf("qftLike/bins=%d", bins), X, y, func(c *Config) { c.MaxBins = bins })
	}

	X, y := benchData(600, 20)
	add("dense", X, y, nil)
	add("dense/all columns", X, y, func(c *Config) { c.SubsampleCols = 1 })

	// The simple QFT's shape: zero where the query says nothing about an
	// attribute, so the first bin is the modal one.
	rng := rand.New(rand.NewSource(3))
	X, y = qftLike(rng, 700, 20)
	for _, row := range X {
		for f := range row {
			row[f] = 1 - row[f]
		}
	}
	add("first bin modal", X, y, nil)

	// Values on the bin edges, among them edges that are not binary
	// fractions: where a code and its value could order differently
	// against an edge, the fit's partition on codes and the oracle's on
	// floats would part.
	X, y = gridMatrix(rand.New(rand.NewSource(5)), 600)
	add("grid", X, y, nil)

	// One row below the last bin: a single cell, with a single entry.
	X, y = qftLike(rng, 500, 12)
	for i := range X {
		X[i][3] = 1
		X[i][7] = 1
	}
	X[0][3], X[499][7] = 0, 0.5
	add("all rows but one in the last bin", X, y, nil)

	// The one input wide enough to need 32-bit cell ids, and large enough
	// that the top of each tree is searched by several goroutines at once.
	X, y = benchData(1200, 300)
	add("bins=256 x 300 dense", X, y, func(c *Config) { c.MaxBins, c.NumTrees = 256, 3 })
	wide := cases[len(cases)-1].cfg
	b := newBuilder(X, wide)
	if cells := len(b.cellEdge); cells <= math.MaxUint16 {
		t.Fatalf("%d cells in the widest case, want more than %d", cells, math.MaxUint16)
	}
	if root := int(wide.SubsampleRows*1200) * b.entries / b.n; root < fanOutEntries {
		t.Fatalf("%d entries in a root of the widest case, want at least fanOutEntries = %d", root, fanOutEntries)
	}
	return cases
}

// TestTrainMatchesSingleFeatureOracle: the sparse split search, most of its
// histograms a parent's less a sibling's, its nodes partitioned on codes,
// trains, byte for byte, the model the dense one-feature-per-pass search
// trains from scratch at every node, partitioning on floats — on every input
// of oracleCases, for worker counts that cut the features into one, two,
// three and seven ranges.
func TestTrainMatchesSingleFeatureOracle(t *testing.T) {
	for _, tc := range oracleCases(t) {
		cfg := tc.cfg
		want := marshalNormalized(t, oracleTrain(tc.X, tc.y, cfg))
		for _, workers := range []int{1, 2, 3, 7} {
			cfg.Workers = workers
			name := fmt.Sprintf("%s workers=%d", tc.name, workers)
			m, err := Train(tc.X, tc.y, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if marshalNormalized(t, m) != want {
				t.Fatalf("%s: trained model differs from the oracle's", name)
			}
			if m.NumNodes() < 3*cfg.NumTrees {
				t.Fatalf("%s: %d nodes in %d trees: nothing was split", name, m.NumNodes(), cfg.NumTrees)
			}
		}
	}
}

// TestSplitGainsMatchOracleBitForBit compares what the model does not store:
// a trained model depends on the histograms only through which split wins,
// so a last-bit difference in a gain changes it only on a tie. Here every
// sampled feature's best split — gain, threshold, found or not — is compared
// with the oracle's on random nodes of every input of oracleCases, small
// enough to be accumulated on one goroutine and large enough to fan out: on
// a node whose histogram was accumulated, and on both children of a random
// split of it, the smaller accumulated and the larger left over in the
// parent's buffer once the smaller was subtracted from it. The oracle passes
// over each child's rows from scratch. Afterwards every buffer is back on
// the free list, zeroed.
func TestSplitGainsMatchOracleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	leftSmaller, rightSmaller := 0, 0
	for _, tc := range oracleCases(t) {
		n, d := len(tc.X), len(tc.X[0])
		cfg := tc.cfg
		cfg.Workers = 3
		b, ob := newBuilder(tc.X, cfg), newOracleBuilder(tc.X, cfg)
		histSum, histCnt := make([]float64, cfg.MaxBins), make([]int, cfg.MaxBins)
		raw, resid := make([]float64, n), make([]float64, n)
		var cols []int
		compare := func(where string, rows []int, hist []histCell) {
			t.Helper()
			var sumTotal float64
			for _, r := range rows {
				sumTotal += resid[r]
			}
			parentScore := sumTotal * sumTotal / float64(len(rows))
			for _, f := range cols {
				got := b.scanCells(hist, f, len(rows), sumTotal, parentScore)
				want := ob.histFeatureSplit(rows, f, resid, sumTotal, parentScore, histSum, histCnt)
				if got != want {
					t.Fatalf("%s, %s, feature %d: split %+v, oracle %+v", tc.name, where, f, got, want)
				}
			}
			feat, split, ok := b.bestSplit(cols, len(rows), sumTotal, hist)
			wantFeat, wantThr, wantGain, wantOK := ob.bestSplit(rows, cols, resid, sumTotal)
			if feat != wantFeat || split.thr != wantThr || split.gain != wantGain || ok != (wantOK && wantGain > 1e-12) {
				t.Fatalf("%s, %s: best split on feature %d at %+v (ok %v), oracle feature %d at %v gain %v",
					tc.name, where, feat, split, ok, wantFeat, wantThr, wantGain)
			}
		}
		for trial := 0; trial < 12; trial++ {
			rows := sampleInts(rng, n, n/2+rng.Intn(n/2))
			for i := range raw {
				raw[i] = rng.NormFloat64()
			}
			if err := residuals(resid, raw, make([]float64, n)); err != nil {
				t.Fatal(err)
			}
			cols = sampleInts(rng, d, d-rng.Intn(4))
			hist := b.takeHist()
			b.accumulate(hist, rows, resid)
			compare("accumulated node", rows, hist)

			// Split where both children are large enough to search a
			// histogram of their own, as grow would have partitioned them.
			nl := 0
			for try := 0; try < 50 && (nl < 2*cfg.MinSamplesLeaf || len(rows)-nl < 2*cfg.MinSamplesLeaf); try++ {
				f := rng.Intn(d)
				if b.cellLo[f] == b.cellLo[f+1] {
					continue
				}
				thr := b.cellEdge[b.cellLo[f]+rng.Intn(b.cellLo[f+1]-b.cellLo[f])]
				nl = 0
				for i, r := range rows {
					if tc.X[r][f] <= thr {
						rows[i], rows[nl] = rows[nl], r
						nl++
					}
				}
			}
			if nl < 2*cfg.MinSamplesLeaf || len(rows)-nl < 2*cfg.MinSamplesLeaf {
				t.Fatalf("%s trial %d: found no split with two searchable children", tc.name, trial)
			}
			hl, hr := b.childHists(hist, rows, nl, resid, 2)
			small, large := hl, hr
			if nl <= len(rows)-nl {
				leftSmaller++
			} else {
				rightSmaller++
				small, large = hr, hl
			}
			if &large[0] != &hist[0] || &small[0] == &hist[0] {
				t.Fatalf("%s trial %d: the larger child's histogram is not the parent's buffer", tc.name, trial)
			}
			compare("left child", rows[:nl], hl)
			compare("right child", rows[nl:], hr)
			b.recycle(hl)
			b.recycle(hr)
			assertHistsFree(t, b)
		}
	}
	// Where most rows sit in a column's last bin the left child is always
	// the smaller; the dense inputs put it on either side.
	if leftSmaller < 12 || rightSmaller < 12 {
		t.Fatalf("the smaller child was on the left %d times and on the right %d: want a dozen of each", leftSmaller, rightSmaller)
	}
}

// assertHistsFree fails unless every histogram b ever made is on its free
// list with every cell zero, and there are no more of them than a tree can
// hold at once.
func assertHistsFree(t *testing.T, b *builder) {
	t.Helper()
	if len(b.free) != b.made || b.made > b.cfg.MaxDepth {
		t.Fatalf("%d histograms on the free list of %d made, want all of at most MaxDepth = %d", len(b.free), b.made, b.cfg.MaxDepth)
	}
	for i, h := range b.free {
		for c, cell := range h {
			if cell != (histCell{}) {
				t.Fatalf("free histogram %d: cell %d left at %+v", i, c, cell)
			}
		}
		for _, other := range b.free[:i] {
			if &other[0] == &h[0] {
				t.Fatalf("free histogram %d is on the list twice", i)
			}
		}
	}
}
