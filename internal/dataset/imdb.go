package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"qfe/internal/catalog"
	"qfe/internal/table"
)

// IMDBConfig configures the IMDb-shaped star-schema generator used for the
// JOB-light experiments (Tables 1, 2, 4, 5).
type IMDBConfig struct {
	// Titles is the number of rows in the hub table `title`. The satellite
	// tables scale with it (cast_info ~ 6x, movie_info ~ 5x, ...), roughly
	// matching the real IMDb proportions used by JOB-light.
	Titles int
	// Seed drives generation.
	Seed int64
}

// IMDBSchema returns the JOB-light sub-schema of IMDb: the hub table
// `title` plus five satellite tables, each referencing title.id via
// movie_id. This is exactly the key/foreign-key star that JOB-light queries
// join along.
func IMDBSchema() *catalog.Schema {
	sats := []string{"cast_info", "movie_info", "movie_info_idx", "movie_companies", "movie_keyword"}
	s := &catalog.Schema{Tables: append([]string{"title"}, sats...)}
	for _, sat := range sats {
		s.FKs = append(s.FKs, catalog.ForeignKey{
			FromTable: sat, FromCol: "movie_id", ToTable: "title", ToCol: "id",
		})
	}
	return s
}

// IMDB generates the star schema's tables. Distributions mirror the
// properties the JOB-light experiments need:
//
//   - title.production_year is skewed toward recent years (1880..2015),
//   - title.kind_id is a small categorical domain (7 kinds, skewed),
//   - satellite fan-out follows a Zipf law over titles, so popular movies
//     dominate join sizes (the reason independence-style estimators
//     misjudge join cardinalities),
//   - satellite category attributes (role_id, info_type_id, company_type_id,
//     keyword_id) are skewed categoricals of varying domain sizes.
func IMDB(cfg IMDBConfig) (*table.DB, error) {
	if cfg.Titles < 10 {
		return nil, fmt.Errorf("dataset: Titles = %d, want >= 10", cfg.Titles)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := table.NewDB()
	n := cfg.Titles

	// --- title ---
	ids := make([]int64, n)
	kind := make([]int64, n)
	year := make([]int64, n)
	episodes := make([]int64, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		kind[i] = skewedCategory(rng, 7)
		// Production year: recent-heavy. Map a square-rooted uniform onto
		// the range so late years are dense.
		u := rng.Float64()
		year[i] = 1880 + int64(math.Sqrt(u)*135+rng.Float64()*8)
		if year[i] > 2015 {
			year[i] = 2015
		}
		if kind[i] >= 5 { // series-like kinds carry episode counts
			episodes[i] = int64(rng.ExpFloat64() * 20)
		}
	}
	title := table.New("title")
	title.MustAddColumn(table.NewColumn("id", ids))
	title.MustAddColumn(table.NewColumn("kind_id", kind))
	title.MustAddColumn(table.NewColumn("production_year", year))
	title.MustAddColumn(table.NewColumn("episode_nr", episodes))
	db.MustAdd(title)

	// Zipf popularity over titles: popular titles attract most satellite
	// rows. Each satellite gets its own popularity ranking (a rotation of
	// the title ids): per-table fan-outs stay heavily skewed, but the same
	// title is not the head of *every* satellite, which keeps full-join
	// cardinalities in a realistic range instead of multiplying one title's
	// fan-outs across five tables.
	zipf := rand.NewZipf(rng, 1.7, 12, uint64(n-1))
	satIndex := 0

	addSatellite := func(name string, factor float64, cats []satCat) {
		offset := uint64(satIndex) * uint64(n) / 7
		satIndex++
		rows := int(float64(n) * factor)
		movieID := make([]int64, rows)
		for i := range movieID {
			movieID[i] = int64((zipf.Uint64() + offset) % uint64(n))
		}
		t := table.New(name)
		t.MustAddColumn(table.NewColumn("movie_id", movieID))
		for _, c := range cats {
			vals := make([]int64, rows)
			for i := range vals {
				vals[i] = skewedCategory(rng, c.domain)
			}
			t.MustAddColumn(table.NewColumn(c.name, vals))
		}
		db.MustAdd(t)
	}

	addSatellite("cast_info", 6, []satCat{{"role_id", 11}, {"nr_order", 50}})
	addSatellite("movie_info", 5, []satCat{{"info_type_id", 110}})
	addSatellite("movie_info_idx", 1.5, []satCat{{"info_type_id", 110}})
	addSatellite("movie_companies", 2.5, []satCat{{"company_type_id", 4}, {"company_id", 200}})
	addSatellite("movie_keyword", 4, []satCat{{"keyword_id", 300}})
	return db, nil
}

type satCat struct {
	name   string
	domain int
}

// skewedCategory draws a category in [1, domain] with geometric-style skew:
// low ids are far more frequent, as in the real IMDb type tables.
func skewedCategory(rng *rand.Rand, domain int) int64 {
	for {
		v := int64(rng.ExpFloat64()*float64(domain)/4) + 1
		if v <= int64(domain) {
			return v
		}
	}
}
