package main

import (
	"encoding/json"
	"fmt"
	"time"

	"qfe/internal/core"
	"qfe/internal/dataset"
	qexec "qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	wlgen "qfe/internal/workload"
)

// daemonSeed is the -seed every daemon under test boots with: it fixes the
// forest table and the training workload, so the served model is the same in
// every run and only the traffic varies with the harness's --seed.
const daemonSeed = 1

// trafficSeedOffset keeps the traffic generator's seed away from daemonSeed:
// workload.Mixed with the daemon's own seed would replay its training set,
// and the benchmark's q-error is meant to be held-out.
const trafficSeedOffset = 1_000_003

// inputs is everything the harness derives from --seed before any daemon
// boots: the forest table (identical to the daemon's, so string literals bind
// and labels are exact) and the labeled, de-duplicated traffic.
type inputs struct {
	db     *table.DB
	forest *table.Table
	sql    []string  // totalQueries distinct mixed AND/OR queries, as the daemon receives them
	card   []float64 // true cardinality of sql[i]

	forestTime time.Duration // dataset.Forest alone, for dataset.forest_ms
}

// buildForest regenerates the daemon's table: same shape and seed as
// cli.BuildForestEnv.
func buildForest(rows int) (*table.Table, error) {
	return dataset.Forest(dataset.ForestConfig{Rows: rows, QuantAttrs: 12, BinaryAttrs: 4, Seed: daemonSeed})
}

func buildInputs(rows int, seed int64) (*inputs, error) {
	start := time.Now()
	forest, err := buildForest(rows)
	if err != nil {
		return nil, err
	}
	in := &inputs{forest: forest, db: table.NewDB(), forestTime: time.Since(start)}
	in.db.MustAdd(forest)

	// A few spare queries cover the rare fingerprint collision; the generator
	// is sequential, so the prefix is stable whatever the surplus.
	set, err := wlgen.Mixed(forest, wlgen.MixedConfig{
		ConjConfig:  wlgen.ConjConfig{Count: totalQueries + totalQueries/16, MaxAttrs: 8, MaxNotEquals: 5, Seed: seed + trafficSeedOffset},
		MaxBranches: 3,
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, totalQueries)
	for _, l := range set {
		fp := core.Fingerprint(l.Query)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		in.sql = append(in.sql, l.Query.String())
		in.card = append(in.card, float64(l.Card))
		if len(in.sql) == totalQueries {
			return in, nil
		}
	}
	return nil, fmt.Errorf("only %d distinct queries out of %d generated, want %d", len(in.sql), len(set), totalQueries)
}

// parse re-reads query i from its SQL text and binds it, exactly as the
// daemon does on receipt, so in-process estimates see the AST the daemon saw.
func (in *inputs) parse(i int) (*sqlparse.Query, error) {
	q, err := sqlparse.Parse(in.sql[i])
	if err != nil {
		return nil, err
	}
	return q, qexec.Bind(q, in.db)
}

type wireItem struct {
	SQL    string   `json:"sql"`
	Actual *float64 `json:"actual,omitempty"`
}

type wireRequest struct {
	SQL     string     `json:"sql,omitempty"`
	Actual  *float64   `json:"actual,omitempty"`
	Queries []wireItem `json:"queries,omitempty"`
}

// request is one POST body and the queries it carries.
type request struct {
	body  []byte
	first int // index of its first query in inputs.sql
	n     int // queries carried
}

// requests renders the workload's distinct POST bodies in cycle order:
// request r carries queries [r*Batch, (r+1)*Batch). The same inputs give
// byte-identical bodies.
func (in *inputs) requests(w workload) ([]request, error) {
	reqs := make([]request, 0, w.Keys/w.Batch)
	for first := 0; first < w.Keys; first += w.Batch {
		var wr wireRequest
		item := func(i int) wireItem {
			it := wireItem{SQL: in.sql[i]}
			if w.Feedback {
				it.Actual = &in.card[i]
			}
			return it
		}
		if w.Batch == 1 {
			it := item(first)
			wr.SQL, wr.Actual = it.SQL, it.Actual
		} else {
			for i := first; i < first+w.Batch; i++ {
				wr.Queries = append(wr.Queries, item(i))
			}
		}
		body, err := json.Marshal(wr)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{body: body, first: first, n: w.Batch})
	}
	return reqs, nil
}
