// Package dataset provides the deterministic synthetic data generators that
// stand in for the paper's evaluation datasets (see DESIGN.md,
// substitutions): a forest-covertype-shaped single table and an IMDb-shaped
// star schema for JOB-light-style join queries.
//
// Both generators are seeded and fully reproducible. They are built to
// preserve the *statistical properties the experiments depend on* — many
// attributes, mixed domain sizes, skew, and cross-attribute correlation (so
// that independence-assumption estimators err) — rather than the paper
// datasets' literal values.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"qfe/internal/table"
)

// ForestConfig configures the covertype-shaped generator.
type ForestConfig struct {
	// Rows is the table size. The real dataset has 581k rows; benches
	// default to a laptop-friendly size via bench.Scale.
	Rows int
	// QuantAttrs is the number of quantitative attributes (the real
	// dataset has 10: elevation, aspect, slope, distances, hillshades...).
	QuantAttrs int
	// BinaryAttrs is the number of binary one-hot attributes (the real
	// dataset has 44 wilderness/soil indicators and one small class label).
	BinaryAttrs int
	// Seed drives generation.
	Seed int64
}

// Forest generates the covertype-shaped table. Attributes are named A1, A2,
// ... (quantitative first, binary last), matching the paper's example query
// style ("A7 >= 160 AND A8 <= 237").
//
// The quantitative attributes are generated with deliberate structure:
//
//   - A1 ("elevation"): mixture of three normal modes — multimodal skew.
//   - A2 ("aspect"): uniform circular 0..359.
//   - A3 ("slope"): right-skewed, positively correlated with A1.
//   - A4, A5 ("distances"): exponential-ish long tails.
//   - A6..: hillshade-like, bounded 0..254, correlated with A2 and with
//     each other.
//
// The correlations are what make the independence baseline err in the
// Figure 4 comparison.
func Forest(cfg ForestConfig) (*table.Table, error) {
	if cfg.Rows < 1 {
		return nil, fmt.Errorf("dataset: Rows = %d, want >= 1", cfg.Rows)
	}
	if cfg.QuantAttrs < 3 {
		return nil, fmt.Errorf("dataset: QuantAttrs = %d, want >= 3", cfg.QuantAttrs)
	}
	if cfg.BinaryAttrs < 0 {
		return nil, fmt.Errorf("dataset: BinaryAttrs = %d, want >= 0", cfg.BinaryAttrs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Rows

	cols := make([][]int64, cfg.QuantAttrs)
	for i := range cols {
		cols[i] = make([]int64, n)
	}

	for r := 0; r < n; r++ {
		// Two latent terrain factors shared by every quantitative
		// attribute. The shared factors are what give the dataset its
		// strong cross-attribute correlations — the property that makes
		// independence-assumption estimators err (Figure 4).
		z1 := rng.NormFloat64() // "terrain" factor
		z2 := rng.NormFloat64() // "orientation" factor

		// A1: elevation, three modes around 2100/2800/3300 m selected by
		// the terrain factor (multimodal skew).
		var elev float64
		switch {
		case z1 < -0.2:
			elev = 2100 + z1*150 + rng.NormFloat64()*25
		case z1 < 1.0:
			elev = 2800 + z1*180 + rng.NormFloat64()*30
		default:
			elev = 3300 + (z1-1)*120 + rng.NormFloat64()*20
		}
		elev = clamp(elev, 1200, 3900)
		cols[0][r] = int64(elev)

		// A2: aspect, driven by the orientation factor (wrapped).
		aspect := math.Mod(180+z2*80+rng.NormFloat64()*10+360, 360)
		cols[1][r] = int64(aspect)

		// A3: slope, right-skewed, strongly tied to the terrain factor.
		slope := 18 + z1*9 + math.Abs(rng.NormFloat64())*2
		cols[2][r] = int64(clamp(slope, 0, 60))

		// Remaining quantitative attributes: alternate between long-tail
		// distances (terrain-driven) and hillshades (orientation-driven),
		// all sharing the two latent factors.
		for q := 3; q < cfg.QuantAttrs; q++ {
			if q%2 == 1 {
				// Distance-like: long tail whose scale follows the terrain
				// factor, so distances co-vary with elevation and slope.
				d := math.Exp(5.2-0.7*z1+0.22*rng.NormFloat64()) - 60
				cols[q][r] = int64(clamp(d, 0, 3000))
			} else {
				// Hillshade-like: bounded, driven by the orientation factor
				// with per-attribute phase, plus a slope dimming term.
				phase := float64(q) * 0.9
				shade := 180 + 60*math.Cos(z2+phase) - slope + rng.NormFloat64()*3
				cols[q][r] = int64(clamp(shade, 0, 254))
			}
		}
	}

	t := table.New("forest")
	for q := 0; q < cfg.QuantAttrs; q++ {
		t.MustAddColumn(table.NewColumn(fmt.Sprintf("A%d", q+1), cols[q]))
	}

	// Binary indicator blocks (wilderness/soil style): each indicator fires
	// for an elevation band plus noise, so binaries correlate with A1.
	for b := 0; b < cfg.BinaryAttrs; b++ {
		vals := make([]int64, n)
		lo := 1200 + float64(b)*(2700/float64(cfg.BinaryAttrs+1))
		hi := lo + 900
		for r := 0; r < n; r++ {
			e := float64(cols[0][r])
			if (e >= lo && e <= hi) != (rng.Float64() < 0.03) {
				vals[r] = 1
			}
		}
		t.MustAddColumn(table.NewColumn(fmt.Sprintf("A%d", cfg.QuantAttrs+b+1), vals))
	}
	return t, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
