package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
)

// The request's parse arena (parseAndBind, reqScratch.arena): a server
// without a Feedback hook parses each request's queries into memory the
// request owns and its release resets. These tests pin the lifetime rule —
// nothing the arena holds is seen after its request, by another request or by
// the hook — and the cap on what a pooled arena may keep.

// astEst answers a function of the whole AST it is handed, so a query whose
// memory another request carved over gets another answer.
type astEst struct{}

func (astEst) Name() string { return "ast" }
func (astEst) Estimate(q *sqlparse.Query) (float64, error) {
	h := fnv.New64a()
	h.Write([]byte(q.String()))
	return float64(h.Sum64() >> 11), nil
}

// estimates posts body and returns the estimates of its answer, in request
// order.
func estimates(tb testing.TB, srv *Server, body []byte) []float64 {
	tb.Helper()
	code, v := rawPost(tb, srv.Handler(), "/v1/estimate", body)
	if code != 200 {
		tb.Fatalf("status %d: %v", code, v)
	}
	if results, ok := v["results"].([]any); ok {
		out := make([]float64, len(results))
		for i, r := range results {
			out[i] = r.(map[string]any)["estimate"].(float64)
		}
		return out
	}
	return []float64{v["estimate"].(float64)}
}

// TestArenaRequestsShareNothing: single and 64-query batch requests on one
// server, from four goroutines at once, get bit-identical answers to the same
// requests sent one at a time. Without a cache every request parses into its
// own scratch's arena, and the pool hands each arena from request to request:
// an arena two requests shared, or one reset while its queries were being
// estimated, would change an answer here (and trip the race detector).
func TestArenaRequestsShareNothing(t *testing.T) {
	db, singles, batch := benchBodies(t, 64)
	srv := newStubServer(t, astEst{}, func(c *Config) { c.DB = db })
	bodies := append(append([][]byte(nil), singles...), batch)
	want := make([][]float64, len(bodies))
	for i, b := range bodies {
		want[i] = estimates(t, srv, b)
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range bodies {
					// Each worker walks the requests from its own offset, and
					// sends the batch between the singles.
					i := (k + w*len(bodies)/workers) % len(bodies)
					if got := estimates(t, srv, bodies[i]); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d, request %d: concurrent answer %v, sequential %v", w, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFeedbackHookIsNeverHandedArenaMemory: the journal keeps what the hook is
// handed after the response is written, and so does a cache entry for the
// hits it answers, so a server with a hook parses into the heap. The queries
// the hook saw for 64 singles and a 64-query batch must still equal a fresh
// parse of their text after 1 000 further requests, a quarter of them hits:
// had any been carved from a request's arena, that request's release would
// have zeroed it and later requests carved over it.
func TestFeedbackHookIsNeverHandedArenaMemory(t *testing.T) {
	db, singles, _ := benchBodies(t, 64+750)
	_, first, batch := benchBodies(t, 64)
	var mu sync.Mutex
	var held []FeedbackEvent
	keep := true
	srv := newStubServer(t, astEst{}, func(c *Config) {
		c.DB = db
		c.Cache = CacheConfig{Entries: 4096}
		c.Feedback = func(ev FeedbackEvent) {
			mu.Lock()
			defer mu.Unlock()
			if keep {
				held = append(held, ev)
			}
		}
	})
	for _, b := range first {
		estimates(t, srv, b)
	}
	estimates(t, srv, batch) // 64 hits: the hook gets the queries the singles' entries kept
	mu.Lock()
	keep = false
	mu.Unlock()
	if len(held) != 128 {
		t.Fatalf("the hook saw %d queries, want 128", len(held))
	}

	further := singles[64:]
	for i := 0; i < 250; i++ {
		further = append(further, first[i%len(first)])
	}
	for _, b := range further {
		estimates(t, srv, b)
	}
	for i, ev := range held {
		want, err := sqlparse.Parse(ev.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if err := exec.Bind(want, db); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ev.Query, want) {
			t.Fatalf("event %d: the hook's query changed after its request ended:\n  got  %s\n  want %s", i, ev.Query, want)
		}
	}
}

// TestArenaPoolCap: a pooled scratch keeps the arena its request grew, so the
// cap on it is what bounds the pool. A 64-query batch of cmd/bench's traffic
// stays under it — its arena is reused, not rebuilt per request — and a
// 256-query batch of long queries does not: release leaves that scratch to
// the collector, and the pool never hands it out again.
func TestArenaPoolCap(t *testing.T) {
	db, singles, _ := benchBodies(t, 64)
	srv := newStubServer(t, astEst{}, func(c *Config) { c.DB = db })
	sc := new(reqScratch)
	for _, b := range singles {
		var req estimateRequest
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.parseAndBind(req.SQL, &sc.arena); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("a 64-query batch of mixed forest queries: arena of %d KiB, cap %d KiB", sc.arena.Size()>>10, maxPooledArena>>10)
	if sc.arena.Size() > maxPooledArena {
		t.Errorf("a 64-query batch grows its arena to %d B, past the %d B a pooled scratch may keep: batches would build an arena per request", sc.arena.Size(), maxPooledArena)
	}

	sc = new(reqScratch)
	var terms []string
	for a := 1; a <= 12; a++ {
		terms = append(terms, fmt.Sprintf("(A%d = 1 OR A%d = 2 OR A%d >= 30 OR A%d <> 7)", a, a, a, a))
	}
	long := "SELECT count(*) FROM forest WHERE " + strings.Join(terms, " AND ")
	for range 256 {
		if _, err := srv.parseAndBind(long, &sc.arena); err != nil {
			t.Fatal(err)
		}
	}
	if sc.arena.Size() <= maxPooledArena {
		t.Fatalf("256 long queries grew the arena to only %d B, within the %d B cap: the test proves nothing", sc.arena.Size(), maxPooledArena)
	}
	sc.release()
	for range 4 {
		if got := scratchPool.Get().(*reqScratch); got == sc {
			t.Fatal("a scratch whose arena grew past the cap came back from the pool")
		}
	}
}
