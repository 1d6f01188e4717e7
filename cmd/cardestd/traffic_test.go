package main

import (
	"encoding/json"
	"fmt"
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/serve"
	"qfe/internal/workload"
)

// The request shapes of cmd/bench's four workloads (cmd/bench/spec.go), as
// TestServedTrafficIsLearned censuses them and BenchmarkServeProfile drives
// them into default.pgo.
const (
	benchKeys  = 8192 // distinct texts of a cold workload: twice the 4096-entry cache, so each is evicted before it comes round again
	hotKeys    = 64   // texts a hot workload re-sends; after the first round every one is a hit
	benchBatch = 64   // queries per POST of batch-cold
	// trafficSeedOffset keeps the traffic's seed away from the boot's, as
	// cmd/bench's does: workload.Mixed with the boot's own seed would replay
	// its training set, and the traffic is meant to be held-out.
	trafficSeedOffset = 1_000_003
)

// shape is one workload's request shape.
type shape struct {
	name     string
	batch    int  // queries per POST: 1 sends {"sql":…}, more {"queries":[…]}
	keys     int  // distinct texts cycled through
	hot      bool // every text is sent once before the workload is driven
	feedback bool // each query carries its true count as "actual"; the daemon runs under -journal
}

// shapes are cmd/bench's workloads over coldKeys distinct texts on the cold
// ones (a multiple of benchBatch).
func shapes(coldKeys int) []shape {
	return []shape{
		{name: "single-cold", batch: 1, keys: coldKeys},
		{name: "single-hot", batch: 1, keys: hotKeys, hot: true},
		{name: "batch-cold", batch: benchBatch, keys: coldKeys},
		{name: "feedback-hot", batch: 1, keys: hotKeys, hot: true, feedback: true},
	}
}

// traffic is held-out query texts in cmd/bench's mix and their true counts.
type traffic struct {
	sql  []string
	card []int64
}

// heldOut draws n distinct texts from workload.Mixed over the boot's forest
// table, in cmd/bench's shape (8 attributes, 5 <>, 3 branches), at the boot's
// seed plus trafficSeedOffset.
func heldOut(tb testing.TB, o options, n int) traffic {
	tb.Helper()
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: o.rows, QuantAttrs: 12, BinaryAttrs: 4, Seed: o.seed})
	if err != nil {
		tb.Fatal(err)
	}
	// A few spare queries cover the rare repeated text.
	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: n + n/16, MaxAttrs: 8, MaxNotEquals: 5, Seed: o.seed + trafficSeedOffset},
		MaxBranches: 3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var tr traffic
	seen := make(map[string]bool, n)
	for _, l := range set {
		sql := l.Query.String()
		if seen[sql] {
			continue
		}
		seen[sql] = true
		tr.sql = append(tr.sql, sql)
		tr.card = append(tr.card, l.Card)
		if len(tr.sql) == n {
			return tr
		}
	}
	tb.Fatalf("only %d distinct texts out of %d generated, want %d", len(tr.sql), len(set), n)
	return tr
}

// bodies renders the shape's POST bodies in cycle order: body r carries
// texts [r*batch, (r+1)*batch) of tr.
func (s shape) bodies(tb testing.TB, tr traffic) [][]byte {
	tb.Helper()
	type item struct {
		SQL    string `json:"sql,omitempty"`
		Actual *int64 `json:"actual,omitempty"`
	}
	type request struct {
		item
		Queries []item `json:"queries,omitempty"`
	}
	at := func(i int) item {
		it := item{SQL: tr.sql[i]}
		if s.feedback {
			it.Actual = &tr.card[i]
		}
		return it
	}
	out := make([][]byte, 0, s.keys/s.batch)
	for first := 0; first < s.keys; first += s.batch {
		var r request
		if s.batch == 1 {
			r.item = at(first)
		} else {
			for i := first; i < first+s.batch; i++ {
				r.Queries = append(r.Queries, at(i))
			}
		}
		body, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// census is what the answers to a workload's requests said.
type census struct {
	queries  int
	stages   map[string]int
	degraded int
}

// add reads one /v1/estimate response to a request of n queries: a status
// other than 200, or a body without n answers, is an error.
func (c *census) add(code int, body []byte, n int) error {
	type result struct {
		Stage    string `json:"stage"`
		Degraded bool   `json:"degraded"`
		Error    string `json:"error"`
	}
	var resp struct {
		result
		Results []result `json:"results"`
	}
	if code != 200 {
		return fmt.Errorf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%v: %s", err, body)
	}
	results := resp.Results
	if n == 1 && len(results) == 0 {
		results = []result{resp.result}
	}
	if len(results) != n {
		return fmt.Errorf("%d answers for %d queries: %s", len(results), n, body)
	}
	if c.stages == nil {
		c.stages = map[string]int{}
	}
	for _, r := range results {
		if r.Error != "" {
			return fmt.Errorf("query answered with an error: %s", r.Error)
		}
		c.queries++
		c.stages[r.Stage]++
		if r.Degraded {
			c.degraded++
		}
	}
	return nil
}

func (c *census) merge(o census) {
	if c.stages == nil {
		c.stages = map[string]int{}
	}
	c.queries += o.queries
	c.degraded += o.degraded
	for k, v := range o.stages {
		c.stages[k] += v
	}
}

// learned reports whether the model answered every query, none degraded.
func (c *census) learned() bool {
	return c.queries > 0 && c.stages["learned"] == c.queries && c.degraded == 0
}

// cacheCounts reads the server's estimate-cache hits and misses.
func cacheCounts(srv *serve.Server) (hits, misses int64) {
	m := srv.Metrics().Snapshot()
	return m["cache_hits"].(int64), m["cache_misses"].(int64)
}
