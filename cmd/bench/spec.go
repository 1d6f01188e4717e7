package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are written down. The harness computes values by name and
// refuses to report a run that does not cover every name in the spec, so the
// file and the code cannot drift apart silently.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadWhy  `json:"workloads"`
	EndToEnd   []boundedSpec  `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
	byName     map[string]int // workload name → index, filled by loadSpec
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedSpec struct {
	metricSpec
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.byName = map[string]int{}
	for i, w := range s.Workloads {
		s.byName[w.Name] = i
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better=%q", path, m.Name, m.Better)
		}
	}
	for _, w := range workloads {
		if _, ok := s.byName[w.Name]; !ok {
			return nil, fmt.Errorf("%s: workload %s is missing", path, w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s: %d workloads, the harness implements %d", path, len(s.Workloads), len(workloads))
	}
	return &s, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render attaches the spec's units to vals. A name the run did not compute,
// or computed without the spec knowing it, is an error, never a silent hole.
func render(kind string, specs []metricSpec, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s metric %s was not measured", kind, m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("%s metric %s is measured but not in the spec", kind, name)
		}
	}
	return out, nil
}

func (s *benchSpec) endToEnd(vals map[string]float64) (map[string]metricValue, error) {
	specs := make([]metricSpec, len(s.EndToEnd))
	for i, m := range s.EndToEnd {
		specs[i] = m.metricSpec
	}
	return render("end-to-end", specs, vals)
}

func (s *benchSpec) perLayer(vals map[string]float64) (map[string]metricValue, error) {
	return render("per-layer", s.PerLayer, vals)
}

// workload is one closed-loop traffic mix. The names are fixed: later issues
// cite them.
type workload struct {
	Name string
	// Batch is queries per POST: 1 sends {"sql":…}, more sends {"queries":[…]}.
	Batch int
	// Keys is how many distinct queries the workload cycles through. The
	// daemon's cache holds 4096 entries in 16 shards of 256, so 8192 keys
	// (512 per shard) evict before they repeat and 64 keys always hit.
	Keys int
	// Feedback sends each query's true cardinality as "actual" and boots the
	// daemon with -journal.
	Feedback bool
	// RefClientCPU is what the load generator's own work costs per query on
	// a quiet box, in CPU microseconds: the yardstick the speed index of a
	// segment is measured against (see runWorkload). It fixes the scale of
	// the timing metrics, not their steadiness.
	RefClientCPU float64
	// MinHit/MaxHit bracket the cache hit ratio the workload must show to
	// prove it exercised (or bypassed) the cache.
	MinHit, MaxHit float64
}

const (
	totalQueries = 8192
	hotKeys      = 64
	batchSize    = 64
)

var workloads = []workload{
	{Name: "single-cold", Batch: 1, Keys: totalQueries, RefClientCPU: 140, MaxHit: 0.05},
	{Name: "single-hot", Batch: 1, Keys: hotKeys, RefClientCPU: 105, MinHit: 0.99, MaxHit: 1},
	{Name: "batch-cold", Batch: batchSize, Keys: totalQueries, RefClientCPU: 7, MaxHit: 0.05},
	{Name: "feedback-hot", Batch: 1, Keys: hotKeys, Feedback: true, RefClientCPU: 110, MinHit: 0.99, MaxHit: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
