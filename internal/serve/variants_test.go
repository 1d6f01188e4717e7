package serve

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"qfe/internal/core"
	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// The estimate cache is keyed on the query text, so two spellings of one
// featurization class no longer share an entry. What they must still share is
// the estimate: it is a function of the class (core.Fingerprint names it),
// not of the cache. This file holds a real model to that, and a cached server
// to answering exactly as an uncached one does.

// ---- spelling variants ----

// eachNode calls visit on every node of e, children before parents; visit
// may rewrite the node it is handed in place.
func eachNode(e sqlparse.Expr, visit func(sqlparse.Expr)) {
	switch n := e.(type) {
	case nil:
		return
	case *sqlparse.And:
		for _, k := range n.Kids {
			eachNode(k, visit)
		}
	case *sqlparse.Or:
		for _, k := range n.Kids {
			eachNode(k, visit)
		}
	}
	visit(e)
}

// spellings are rewrites core.Fingerprint absorbs and the featurization is
// invariant under, each applied to a clone of the query: the result is
// another text for the same class.
var spellings = []struct {
	name    string
	rewrite func(rng *rand.Rand, q *sqlparse.Query)
}{
	{"shuffled", func(rng *rand.Rand, q *sqlparse.Query) {
		eachNode(q.Where, func(e sqlparse.Expr) {
			var kids []sqlparse.Expr
			switch n := e.(type) {
			case *sqlparse.And:
				kids = n.Kids
			case *sqlparse.Or:
				kids = n.Kids
			}
			rng.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
		})
	}},
	// One simple predicate repeated inside each conjunction it stands in. (A
	// repeated disjunct or compound is not on this list: Fingerprint absorbs
	// those too, but Limited Disjunction Encoding's selectivity entry sums
	// over the DNF terms, so the featurization does not — DESIGN §6.)
	{"duplicated", func(rng *rand.Rand, q *sqlparse.Query) {
		if p, ok := q.Where.(*sqlparse.Pred); ok {
			q.Where = &sqlparse.And{Kids: []sqlparse.Expr{p, sqlparse.CloneExpr(p)}}
			return
		}
		eachNode(q.Where, func(e sqlparse.Expr) {
			and, ok := e.(*sqlparse.And)
			if !ok {
				return
			}
			var preds []sqlparse.Expr
			for _, k := range and.Kids {
				if _, ok := k.(*sqlparse.Pred); ok {
					preds = append(preds, k)
				}
			}
			if len(preds) > 0 {
				and.Kids = append(and.Kids, sqlparse.CloneExpr(preds[rng.Intn(len(preds))]))
			}
		})
	}},
	{"strict-vs-closed", func(_ *rand.Rand, q *sqlparse.Query) {
		eachNode(q.Where, func(e sqlparse.Expr) {
			p, ok := e.(*sqlparse.Pred)
			if !ok || p.Str != nil || p.Like || p.Val <= math.MinInt64+1 || p.Val >= math.MaxInt64-1 {
				return
			}
			switch p.Op {
			case sqlparse.OpGt:
				p.Op, p.Val = sqlparse.OpGe, p.Val+1
			case sqlparse.OpGe:
				p.Op, p.Val = sqlparse.OpGt, p.Val-1
			case sqlparse.OpLt:
				p.Op, p.Val = sqlparse.OpLe, p.Val-1
			case sqlparse.OpLe:
				p.Op, p.Val = sqlparse.OpLt, p.Val+1
			}
		})
	}},
	{"from-order", func(_ *rand.Rand, q *sqlparse.Query) { slices.Reverse(q.Tables) }},
}

// variantFixture is a database, a model trained on it, and queries to spell.
type variantFixture struct {
	db      *table.DB
	est     estimator.Estimator
	queries []*sqlparse.Query
}

// mixedFixture: the benchmark's query shape — mixed AND/OR compounds over a
// forest table — under a complex-QFT GB model.
func mixedFixture(t *testing.T) variantFixture {
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 2000, QuantAttrs: 6, BinaryAttrs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db := table.NewDB()
	db.MustAdd(forest)
	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: 340, MaxAttrs: 5, MaxNotEquals: 3, Seed: 11},
		MaxBranches: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := set.Split(300)
	return variantFixture{db, trainLocalQFT(t, db, "complex", train, 16), test.Queries()}
}

// joinFixture: two- and three-table star joins, the only queries whose FROM
// list has an order to swap.
func joinFixture(t *testing.T) variantFixture {
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.IMDBSchema()
	var train workload.Set
	var queries []*sqlparse.Query
	for i, tables := range [][]string{{"title", "cast_info"}, {"title", "movie_info", "movie_keyword"}} {
		set, err := workload.JoinForTables(db, schema, tables, 130, 4, int64(20+i))
		if err != nil {
			t.Fatal(err)
		}
		tr, te := set.Split(120)
		train = append(train, tr...)
		queries = append(queries, te.Queries()...)
	}
	return variantFixture{db, trainLocalQFT(t, db, "conjunctive", train, 16), queries}
}

// checkSpellings: every spelling of a query has the query's fingerprint and
// gets the query's estimate, bit for bit, through Server.Handler() — with the
// cache off, with it cold (nothing of the class cached), and with it warm (the
// original spelling cached: the variant is a different key, so it recomputes,
// and only its own repeat is a hit).
func checkSpellings(t *testing.T, fx variantFixture, names ...string) {
	server := func(entries int) *Server {
		return newStubServer(t, fx.est, func(c *Config) {
			c.DB = fx.db
			c.Cache = CacheConfig{Entries: entries}
		})
	}
	off, cold, warm := server(0), server(4096), server(4096)
	estimate := func(srv *Server, sql string) float64 {
		t.Helper()
		code, body := postJSON(t, srv.Handler(), "/v1/estimate", map[string]any{"sql": sql})
		if code != http.StatusOK {
			t.Fatalf("POST %q: %d %v", sql, code, body)
		}
		return body["estimate"].(float64)
	}

	rng := rand.New(rand.NewSource(1))
	spelled := map[string]int{}
	for _, q := range fx.queries {
		sql := q.String()
		want := estimate(off, sql)
		if got := estimate(warm, sql); got != want {
			t.Fatalf("%q: cached server answers %v, uncached %v", sql, got, want)
		}
		for _, sp := range spellings {
			v := q.Clone()
			sp.rewrite(rng, v)
			variant := v.String()
			if variant == sql {
				continue // nothing to respell: one conjunct, no range predicate, one table
			}
			spelled[sp.name]++
			parsed, err := sqlparse.Parse(variant)
			if err != nil {
				t.Fatalf("%s variant %q does not parse: %v", sp.name, variant, err)
			}
			if core.Fingerprint(parsed) != core.Fingerprint(q) {
				t.Fatalf("%s variant left the class:\n  %s\n  %s", sp.name, sql, variant)
			}
			misses := warm.Metrics().cacheMisses.Load()
			for _, c := range []struct {
				state string
				srv   *Server
			}{{"off", off}, {"cold", cold}, {"warm", warm}, {"warm, repeated", warm}} {
				if got := estimate(c.srv, variant); got != want {
					t.Errorf("%s variant, cache %s: estimate %v, want %v (bits %x vs %x)\n  %s\n  %s",
						sp.name, c.state, got, want, math.Float64bits(got), math.Float64bits(want), sql, variant)
				}
			}
			if got := warm.Metrics().cacheMisses.Load() - misses; got != 1 {
				t.Errorf("%s variant of a cached query: %d misses over two requests, want 1 (it recomputes once, then hits as itself)", sp.name, got)
			}
		}
	}
	for _, name := range names {
		if spelled[name] < len(fx.queries)/2 {
			t.Errorf("only %d of %d queries had a %s variant", spelled[name], len(fx.queries), name)
		}
	}
}

func TestSpellingVariantsEstimateBitIdentical(t *testing.T) {
	checkSpellings(t, mixedFixture(t), "shuffled", "duplicated", "strict-vs-closed")
}

func TestFromOrderVariantsEstimateBitIdentical(t *testing.T) {
	checkSpellings(t, joinFixture(t), "from-order")
}

// ---- a cached server answers as an uncached one ----

// serveBody pushes one body through h and returns the status and the response
// with every "micros" zeroed — the one field that may differ between two
// servers answering the same request.
func serveBody(t testing.TB, h http.Handler, body string) (int, string) {
	t.Helper()
	code, resp := rawPost(t, h, "/v1/estimate", []byte(body))
	zeroMicros := func(m map[string]any) {
		if _, ok := m["micros"]; ok {
			m["micros"] = 0
		}
	}
	zeroMicros(resp)
	results, _ := resp["results"].([]any)
	for _, r := range results {
		zeroMicros(r.(map[string]any))
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// sameAsUncached sends body to each cached server twice — the second time
// whatever the first inserted is served — and to the uncached one, and
// requires one answer from them all. A request cut short by its own
// timeoutMs is the one thing a cache legitimately changes (a hit arms no
// timer), so such answers are not compared.
func sameAsUncached(t testing.TB, cached []http.Handler, uncached http.Handler, body string) {
	t.Helper()
	wantCode, want := serveBody(t, uncached, body)
	for i, h := range cached {
		for round := 1; round <= 2; round++ {
			code, got := serveBody(t, h, body)
			if code >= 500 {
				t.Fatalf("body %q produced status %d:\n%s", body, code, got)
			}
			if deadline := context.DeadlineExceeded.Error(); strings.Contains(got, deadline) || strings.Contains(want, deadline) {
				return
			}
			if code != wantCode || got != want {
				t.Fatalf("body %q, request %d to cached server %d: %d %s\nuncached server: %d %s", body, round, i, code, got, wantCode, want)
			}
		}
	}
}

// diffServers is two cached servers — one bare, one whose Feedback hook
// fingerprints the query it is handed, as cardestd's does, so its entries
// keep their queries and a hit hands one over — and a Cache.Entries = 0
// server, over one database and one deterministic estimator.
func diffServers(tb testing.TB, db *table.DB) (cached []http.Handler, uncached http.Handler) {
	build := func(entries int, hook func(FeedbackEvent)) http.Handler {
		reg := newChainRegistry()
		if _, err := reg.Register("indep", &estimator.Independence{DB: db}, ModelInfo{Kind: "baseline"}); err != nil {
			tb.Fatal(err)
		}
		srv, err := New(Config{Registry: reg, DB: db, Cache: CacheConfig{Entries: entries}, Feedback: hook})
		if err != nil {
			tb.Fatal(err)
		}
		return srv.Handler()
	}
	fingerprint := func(ev FeedbackEvent) { core.Fingerprint(ev.Query) } // a nil query panics here
	return []http.Handler{build(256, nil), build(256, fingerprint)}, build(0, nil)
}

// TestCachedServerAnswersAsUncached: status code and body, over the fuzz
// corpus (text that does not parse or bind is a 400 the second time too:
// never estimated, never inserted, never served) and the benchmark's bodies.
func TestCachedServerAnswersAsUncached(t *testing.T) {
	db, singles, batch := benchBodies(t, 32)
	cached, uncached := diffServers(t, db)
	bodies := estimateBodySeeds()
	for _, b := range append(singles, batch) {
		bodies = append(bodies, string(b))
	}
	for _, body := range bodies {
		sameAsUncached(t, cached, uncached, body)
	}
}
