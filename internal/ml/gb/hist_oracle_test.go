package gb

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleBuilder is the histogram split search as it was before histSplits:
// bin codes stored row-major, one feature accumulated per pass over the
// node's rows, every bin edge scored, on one goroutine. oracleTrain drives it
// through the boosting loop of TrainCtx, so a model it returns is what Train
// returned then.
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
		if res.ok && res.gain > gain {
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
			best = splitResult{thr: edges[k], gain: g, ok: true}
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
		for i := range resid {
			resid[i] = y[i] - pred[i]
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
		m.Trees = append(m.Trees, tr)
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

// withConstantColumn makes column f of X constant: a feature with no bin
// edges, which the wide pass accumulates like any other and the remainder
// pass skips.
func withConstantColumn(X [][]float64, f int) {
	for i := range X {
		X[i][f] = 1
	}
}

// TestTrainMatchesSingleFeatureOracle: the interleaved, feature-major split
// search trains, byte for byte, the model the one-feature-per-pass search
// trains — for every worker count (each worker's share of the columns has
// its own remainder), for column counts leaving every remainder mod
// histWidth after SubsampleCols, at the smallest, the default and the
// largest MaxBins, and through a checkpoint and resume.
func TestTrainMatchesSingleFeatureOracle(t *testing.T) {
	for _, d := range []int{20, 21, 22, 23} { // ceil(0.8*d) = 16, 17, 18, 19
		for _, bins := range []int{2, 64, 256} {
			rng := rand.New(rand.NewSource(int64(d*1000 + bins)))
			X, y := qftLike(rng, 700, d)
			withConstantColumn(X, 5)
			withConstantColumn(X, d-1)
			cfg := DefaultConfig()
			cfg.NumTrees = 8
			cfg.MaxBins = bins
			cfg.Seed = int64(d + bins)
			if got := int(math.Ceil(cfg.SubsampleCols*float64(d))) % histWidth; got != d%histWidth {
				t.Fatalf("d=%d: %d columns left over after subsampling, want %d", d, got, d%histWidth)
			}
			for _, workers := range []int{1, 2, 3} {
				cfg.Workers = workers
				name := fmt.Sprintf("d=%d bins=%d workers=%d", d, bins, workers)
				want, err := json.Marshal(oracleTrain(X, y, cfg))
				if err != nil {
					t.Fatal(err)
				}
				m, err := Train(X, y, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, _ := json.Marshal(m); string(got) != string(want) {
					t.Fatalf("%s: trained model differs from the oracle's", name)
				}
				if m.NumNodes() < 3*cfg.NumTrees {
					t.Fatalf("%s: %d nodes in %d trees: nothing was split", name, m.NumNodes(), cfg.NumTrees)
				}
				ck := trainInterrupted(t, X, y, cfg, 3, 1) // canceled after tree 3
				resumed, err := TrainCtx(context.Background(), X, y, cfg, &TrainOpts{Resume: ck})
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				if got, _ := json.Marshal(resumed); string(got) != string(want) {
					t.Fatalf("%s: resumed model differs from the oracle's", name)
				}
			}
		}
	}
}

// TestSplitGainsMatchOracleBitForBit compares what the model does not store:
// a trained model depends on the histograms only through which split wins,
// so a last-bit difference in a gain changes it only on a tie. Here every
// feature's best split — gain, threshold, found or not — is compared with
// the oracle's on random nodes, both through the histWidth-wide pass and
// through the one-feature remainder.
func TestSplitGainsMatchOracleBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, d = 900, 23
	X, _ := qftLike(rng, n, d)
	withConstantColumn(X, 5)
	withConstantColumn(X, d-1)
	for _, bins := range []int{2, 64, 256} {
		cfg := DefaultConfig()
		cfg.MaxBins = bins
		b, ob := newBuilder(X, cfg), newOracleBuilder(X, cfg)
		h := new(histograms)
		histSum, histCnt := make([]float64, bins), make([]int, bins)
		for trial := 0; trial < 40; trial++ {
			rows := sampleInts(rng, n, 20+rng.Intn(n-20))
			resid := make([]float64, n)
			var sumTotal float64
			for i := range resid {
				resid[i] = rng.NormFloat64()
			}
			for _, r := range rows {
				sumTotal += resid[r]
			}
			parentScore := sumTotal * sumTotal / float64(len(rows))
			cols := sampleInts(rng, d, d-rng.Intn(4))
			got := make([]splitResult, len(cols))
			ci := 0
			for ; ci+histWidth <= len(cols); ci += histWidth {
				b.histSplits(h, rows, (*[histWidth]int)(cols[ci:]), resid, sumTotal, parentScore, (*[histWidth]splitResult)(got[ci:]))
			}
			for ; ci < len(cols); ci++ {
				got[ci] = b.histFeatureSplit(h, rows, cols[ci], resid, sumTotal, parentScore)
			}
			for ci, f := range cols {
				want := ob.histFeatureSplit(rows, f, resid, sumTotal, parentScore, histSum, histCnt)
				if got[ci] != want {
					t.Fatalf("bins=%d trial %d feature %d: split %+v, oracle %+v", bins, trial, f, got[ci], want)
				}
			}
		}
	}
}
