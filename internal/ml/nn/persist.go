package nn

import (
	"encoding/json"
	"fmt"

	"qfe/internal/ml/mlmath"
)

// savedModel is the serialized form of a trained network: configuration,
// input dimension, and per-layer weights.
type savedModel struct {
	Cfg    Config       `json:"cfg"`
	Dim    int          `json:"dim"`
	Layers []savedLayer `json:"layers"`
}

type savedLayer struct {
	In  int       `json:"in"`
	Out int       `json:"out"`
	W   []float64 `json:"w"`
	B   []float64 `json:"b"`
}

// MarshalJSON serializes the trained network (weights included) so local
// estimators can be shipped without retraining.
func (m *Model) MarshalJSON() ([]byte, error) {
	s := savedModel{Cfg: m.cfg, Dim: m.dim}
	for _, l := range m.layers {
		s.Layers = append(s.Layers, savedLayer{
			In: l.In, Out: l.Out,
			W: append([]float64(nil), l.W...),
			B: append([]float64(nil), l.B...),
		})
	}
	return json.Marshal(s)
}

// UnmarshalJSON restores a serialized network. The restored model predicts
// identically to the original; optimizer state is not preserved.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s savedModel
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("nn: serialized model has no layers")
	}
	if s.Layers[0].In != s.Dim {
		return fmt.Errorf("nn: first layer input %d != model dim %d", s.Layers[0].In, s.Dim)
	}
	layers := make([]*mlmath.Dense, len(s.Layers))
	prev := s.Dim
	for i, sl := range s.Layers {
		if sl.In != prev {
			return fmt.Errorf("nn: layer %d input %d does not chain from %d", i, sl.In, prev)
		}
		d, err := mlmath.NewDenseFromParams(sl.In, sl.Out, sl.W, sl.B)
		if err != nil {
			return fmt.Errorf("nn: layer %d: %w", i, err)
		}
		layers[i] = d
		prev = sl.Out
	}
	if prev != 1 {
		return fmt.Errorf("nn: final layer width %d, want 1", prev)
	}
	m.cfg = s.Cfg
	m.dim = s.Dim
	m.layers = layers
	m.initFastPath()
	return nil
}
