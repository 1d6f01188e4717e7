package serve

import (
	"net/http"
	"testing"

	"qfe/internal/cli"
	"qfe/internal/estimator"
)

// unknownNameBodies name what the served database does not have: a column,
// a table, and a column qualified with a table the query does not select
// from. Each is the client's error.
var unknownNameBodies = []string{
	`{"sql":"SELECT count(*) FROM forest WHERE NOPE = 5"}`,
	`{"sql":"SELECT count(*) FROM nosuch"}`,
	`{"sql":"SELECT count(*) FROM forest WHERE other.A1 = 5"}`,
}

// TestUnknownNamesStayAtTheDoor: a request naming an unknown column or table
// is a 400 (inside a client batch, that item's error) and never reaches the
// serving chain, so a client's typos are never counted as a stage's failure,
// and the valid query after them is the learned stage's. The chain is
// cardestd's: cli.Chain around a GB model on the complex QFT.
func TestUnknownNamesStayAtTheDoor(t *testing.T) {
	db, set := testEnv(t)
	learned := trainLocalQFT(t, db, "complex", set[:300], 8)
	reg := NewRegistry()
	reg.Wrap = func(e estimator.Estimator) estimator.Estimator { return cli.Chain(db, e) }
	if _, err := reg.Register("boot", learned, ModelInfo{Kind: estimator.KindLocal, Source: "test"}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Registry: reg, DB: db, Cache: CacheConfig{Entries: 64}})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	for i := 0; i < 9; i++ {
		body := unknownNameBodies[i%len(unknownNameBodies)]
		if code, resp := rawPost(t, h, "/v1/estimate", []byte(body)); code != http.StatusBadRequest {
			t.Fatalf("request %d, %s: status %d (%v), want 400", i, body, code, resp)
		}
	}
	batch := `{"queries":[{"sql":"SELECT count(*) FROM forest WHERE NOPE >= 2"},{"sql":"SELECT count(*) FROM forest WHERE A1 >= 2 AND other.A1 = 5"}]}`
	code, resp := rawPost(t, h, "/v1/estimate", []byte(batch))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d (%v), want 200 with per-item errors", code, resp)
	}
	for i, item := range resp["results"].([]any) {
		if r := item.(map[string]any); r["error"] == nil || r["stage"] != nil {
			t.Errorf("batch item %d: %v, want an error and no stage", i, r)
		}
	}

	code, resp = rawPost(t, h, "/v1/estimate", []byte(`{"sql":"SELECT count(*) FROM forest WHERE A1 >= 2500"}`))
	if code != http.StatusOK || resp["stage"] != "learned" {
		t.Fatalf("a valid query after the typos: status %d, %v; want 200 from stage learned", code, resp)
	}
	if got := srv.Metrics().Snapshot()["degraded_total"]; got != int64(0) {
		t.Errorf("degraded_total = %v, want 0", got)
	}
}
