package engine

import (
	"testing"

	"qfe/internal/dataset"
	"qfe/internal/estimator"
	"qfe/internal/sqlparse"
)

// BenchmarkChoosePlan measures the optimizer's planning cost for a 5-way
// star join under the independence estimator — the per-query overhead a
// cardinality estimator adds to optimization.
func BenchmarkChoosePlan(b *testing.B) {
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 2_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := sqlparse.MustParse(`SELECT count(*) FROM title, cast_info, movie_info, movie_companies, movie_keyword
		WHERE cast_info.movie_id = title.id AND movie_info.movie_id = title.id
		AND movie_companies.movie_id = title.id AND movie_keyword.movie_id = title.id
		AND title.production_year >= 1990 AND cast_info.role_id = 1`)
	opt := &Optimizer{Est: &estimator.Independence{DB: db}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.ChoosePlan(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutePlan measures plan execution (filter + hash joins) for
// the same query.
func BenchmarkExecutePlan(b *testing.B) {
	db, err := dataset.IMDB(dataset.IMDBConfig{Titles: 2_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := sqlparse.MustParse(`SELECT count(*) FROM title, cast_info, movie_keyword
		WHERE cast_info.movie_id = title.id AND movie_keyword.movie_id = title.id
		AND title.production_year >= 1990`)
	opt := &Optimizer{Est: &estimator.Independence{DB: db}}
	plan, err := opt.ChoosePlan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(db, q, plan); err != nil {
			b.Fatal(err)
		}
	}
}
