package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"qfe/internal/catalog"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// attrKind tells the join generators how to predicate an attribute.
type attrKind int

const (
	kindCategorical attrKind = iota // equality predicates
	kindRange                       // range predicates
	kindKey                         // join key: never predicated
)

// imdbAttrKinds classifies the IMDb columns: keys are never predicated,
// small categoricals get equalities, ordered attributes get ranges —
// matching JOB-light's "at most one range per attribute" profile.
var imdbAttrKinds = map[string]attrKind{
	"title.id":                        kindKey,
	"title.kind_id":                   kindCategorical,
	"title.production_year":           kindRange,
	"title.episode_nr":                kindRange,
	"cast_info.movie_id":              kindKey,
	"cast_info.role_id":               kindCategorical,
	"cast_info.nr_order":              kindRange,
	"movie_info.movie_id":             kindKey,
	"movie_info.info_type_id":         kindCategorical,
	"movie_info_idx.movie_id":         kindKey,
	"movie_info_idx.info_type_id":     kindCategorical,
	"movie_companies.movie_id":        kindKey,
	"movie_companies.company_type_id": kindCategorical,
	"movie_companies.company_id":      kindCategorical,
	"movie_keyword.movie_id":          kindKey,
	"movie_keyword.keyword_id":        kindCategorical,
}

// JoinConfig configures the JOB-light-style suite generator.
type JoinConfig struct {
	// Count is the number of labeled, non-empty queries (JOB-light has 70).
	Count int
	// MinJoins and MaxJoins bound the number of join predicates; JOB-light
	// queries contain between 2 and 5 joins.
	MinJoins, MaxJoins int
	// MaxPreds bounds the number of selection predicates (JOB-light: 1-5).
	MaxPreds int
	// Seed drives generation.
	Seed int64
}

// DefaultJOBLightConfig mirrors the JOB-light profile: 70 queries with 2-5
// joins and 1-5 conjunctive predicates, at most one range per attribute.
func DefaultJOBLightConfig() JoinConfig {
	return JoinConfig{Count: 70, MinJoins: 2, MaxJoins: 5, MaxPreds: 5, Seed: 70}
}

// JOBLight generates the JOB-light-style test suite over the IMDb star
// schema: title joined with MinJoins..MaxJoins satellites, 1..MaxPreds
// selection predicates over 1..4 distinct attributes, and at most one range
// per attribute (ranges are closed or one-sided, mirroring the original
// suite's year predicates).
func JOBLight(db *table.DB, schema *catalog.Schema, cfg JoinConfig) (Set, error) {
	return generateJoins(db, schema, cfg, false)
}

// JoinTraining generates the training workload for the join experiments:
// queries over random connected sub-schemas (base tables included), with the
// same predicate profile as JOB-light. The paper trains on 231k generated
// queries; scale Count to taste.
func JoinTraining(db *table.DB, schema *catalog.Schema, cfg JoinConfig) (Set, error) {
	return generateJoins(db, schema, cfg, true)
}

func generateJoins(db *table.DB, schema *catalog.Schema, cfg JoinConfig, includeBase bool) (Set, error) {
	if cfg.Count < 1 {
		return nil, fmt.Errorf("workload: Count = %d, want >= 1", cfg.Count)
	}
	satellites := satelliteTables(schema)
	if cfg.MaxJoins <= 0 || cfg.MaxJoins > len(satellites) {
		cfg.MaxJoins = len(satellites)
	}
	if cfg.MinJoins < 1 {
		cfg.MinJoins = 1
	}
	if cfg.MinJoins > cfg.MaxJoins {
		return nil, fmt.Errorf("workload: MinJoins %d > MaxJoins %d", cfg.MinJoins, cfg.MaxJoins)
	}
	if cfg.MaxPreds < 1 {
		cfg.MaxPreds = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return generate(db, cfg.Count, func() (*sqlparse.Query, error) {
		var tables []string
		if includeBase && rng.Intn(3) == 0 {
			// Base-table query: a single table, satellite or hub.
			all := schema.Tables
			tables = []string{all[rng.Intn(len(all))]}
		} else {
			nJoins := cfg.MinJoins + rng.Intn(cfg.MaxJoins-cfg.MinJoins+1)
			if includeBase {
				// Training covers all join widths down to a single join.
				nJoins = 1 + rng.Intn(cfg.MaxJoins)
			}
			perm := rng.Perm(len(satellites))
			tables = []string{hubTable(schema)}
			for i := 0; i < nJoins; i++ {
				tables = append(tables, satellites[perm[i]])
			}
		}
		return buildJoinQuery(db, schema, rng, tables, cfg.MaxPreds)
	})
}

// buildJoinQuery assembles the query over the given table set: join
// predicates from the schema's foreign keys plus a random conjunctive
// selection with at most one range per attribute.
func buildJoinQuery(db *table.DB, schema *catalog.Schema, rng *rand.Rand, tables []string, maxPreds int) (*sqlparse.Query, error) {
	q := &sqlparse.Query{Tables: tables}
	if len(tables) > 1 {
		edges, err := schema.JoinEdges(tables)
		if err != nil {
			return nil, err
		}
		for _, e := range edges {
			q.Joins = append(q.Joins, sqlparse.JoinPred{
				LeftTable: e.FromTable, LeftCol: e.FromCol,
				RightTable: e.ToTable, RightCol: e.ToCol,
			})
		}
	}

	// Collect the predicable attributes of the participating tables.
	var candidates []string
	for _, tn := range tables {
		t := db.Table(tn)
		if t == nil {
			return nil, fmt.Errorf("workload: unknown table %q", tn)
		}
		for _, col := range t.Columns() {
			qn := tn + "." + col.Name
			if imdbAttrKinds[qn] != kindKey {
				candidates = append(candidates, qn)
			}
		}
	}
	sort.Strings(candidates)

	nAttrs := 1 + rng.Intn(min(4, len(candidates)))
	attrs := pickDistinctAttrs(rng, candidates, nAttrs)
	budget := 1 + rng.Intn(maxPreds)
	var preds []sqlparse.Expr
	for _, qn := range attrs {
		if budget <= 0 {
			break
		}
		tn, cn := splitQualified(qn)
		col := db.Table(tn).Column(cn)
		anchor := col.Vals[rng.Intn(col.Len())]
		switch imdbAttrKinds[qn] {
		case kindCategorical:
			preds = append(preds, &sqlparse.Pred{Attr: qn, Op: sqlparse.OpEq, Val: anchor})
			budget--
		case kindRange:
			mn, mx := col.Min(), col.Max()
			span := (mx - mn + 1) / 4
			if span < 1 {
				span = 1
			}
			lo := anchor - rng.Int63n(span+1)
			hi := anchor + rng.Int63n(span+1)
			if lo < mn {
				lo = mn
			}
			if hi > mx {
				hi = mx
			}
			switch {
			case budget >= 2 && rng.Intn(3) != 0: // closed range
				preds = append(preds,
					&sqlparse.Pred{Attr: qn, Op: sqlparse.OpGe, Val: lo},
					&sqlparse.Pred{Attr: qn, Op: sqlparse.OpLe, Val: hi})
				budget -= 2
			case rng.Intn(2) == 0: // one-sided lower
				preds = append(preds, &sqlparse.Pred{Attr: qn, Op: sqlparse.OpGe, Val: lo})
				budget--
			default: // one-sided upper
				preds = append(preds, &sqlparse.Pred{Attr: qn, Op: sqlparse.OpLe, Val: hi})
				budget--
			}
		}
	}
	q.Where = sqlparse.NewAnd(preds...)
	return q, nil
}

// JoinForTables generates count labeled, non-empty queries over exactly the
// given table set (which must be a connected sub-schema), with the JOB-light
// predicate profile. It is the stratified building block local-model
// training uses to guarantee every sub-schema has a model.
func JoinForTables(db *table.DB, schema *catalog.Schema, tables []string, count, maxPreds int, seed int64) (Set, error) {
	if count < 1 {
		return nil, fmt.Errorf("workload: count = %d, want >= 1", count)
	}
	if maxPreds < 1 {
		maxPreds = 5
	}
	if len(tables) > 1 {
		if _, err := schema.JoinEdges(tables); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	return generate(db, count, func() (*sqlparse.Query, error) {
		return buildJoinQuery(db, schema, rng, tables, maxPreds)
	})
}

// StratifiedJoinTraining generates perSubSchema labeled queries for every
// connected sub-schema of the schema (up to maxTables tables), concatenated
// in deterministic sub-schema order. Local models trained on the result
// cover every routable query.
func StratifiedJoinTraining(db *table.DB, schema *catalog.Schema, perSubSchema, maxTables, maxPreds int, seed int64) (Set, error) {
	var out Set
	for i, tables := range schema.ConnectedSubSchemas(maxTables) {
		sub, err := JoinForTables(db, schema, tables, perSubSchema, maxPreds, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("workload: sub-schema %v: %w", tables, err)
		}
		out = append(out, sub...)
	}
	return out, nil
}

// hubTable returns the table every foreign key points to (title in the
// IMDb schema).
func hubTable(schema *catalog.Schema) string {
	for _, fk := range schema.FKs {
		return fk.ToTable
	}
	return schema.Tables[0]
}

// satelliteTables returns the non-hub tables.
func satelliteTables(schema *catalog.Schema) []string {
	hub := hubTable(schema)
	var out []string
	for _, t := range schema.Tables {
		if t != hub {
			out = append(out, t)
		}
	}
	return out
}

func splitQualified(qn string) (tbl, col string) {
	for i := 0; i < len(qn); i++ {
		if qn[i] == '.' {
			return qn[:i], qn[i+1:]
		}
	}
	return "", qn
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
